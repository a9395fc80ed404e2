/**
 * @file
 * Named geometry constants of the paper's CNV configuration
 * (Section IV-A), for defaults in the structural reference models.
 * `tools/cnvlint.py` bans bare geometry literals elsewhere: when a
 * 16 means "lanes" or "banks", say so with one of these (full-node
 * parameters live in `dadiannao::NodeConfig`; the brick size and
 * value width in `zfnaf/format.h`).
 */

#ifndef CNV_REF_GEOMETRY_H
#define CNV_REF_GEOMETRY_H

namespace cnv::ref {

/** Neuron lanes (CNV subunits) per unit in the paper's node. */
inline constexpr int kPaperLanes = 16;

/** Independent NM banks feeding the dispatcher's brick buffer. */
inline constexpr int kPaperNmBanks = 16;

} // namespace cnv::ref

#endif // CNV_REF_GEOMETRY_H
