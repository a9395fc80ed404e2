/**
 * @file
 * Brick-to-lane assignment for CNV (Section IV-B2).
 *
 * ZOnly and XYZHash are static functions of array coordinates (the
 * encoder can place each slice in its NM bank when it writes the
 * previous layer's output). WindowEven — the default, matching the
 * paper's "divides the window evenly into 16 slices" — additionally
 * uses the brick's sequence position within the consuming window,
 * which assumes bank-to-lane steering in the dispatcher (see
 * DESIGN.md).
 */

#ifndef CNV_DADIANNAO_ASSIGNMENT_H
#define CNV_DADIANNAO_ASSIGNMENT_H

#include "dadiannao/config.h"

namespace cnv::dadiannao {

/**
 * Neuron lane that processes one brick of a window.
 *
 * @param policy Assignment policy.
 * @param x Array x coordinate of the brick's column.
 * @param y Array y coordinate of the brick's column.
 * @param zBrick Depth-brick index within the array.
 * @param windowSeq Sequence number of the brick within the window's
 *        processing order (valid cells in (ky, kx) order, bricks
 *        innermost); used only by WindowEven.
 * @param lanes Neuron lanes per unit.
 */
inline int
laneOf(LaneAssignment policy, int x, int y, int zBrick,
       int windowSeq, int lanes)
{
    // Every coordinate is non-negative, so a power-of-two lane count
    // (every shipped one) wraps with a mask. The divide it replaces
    // was about 30% of timing::convEncoded, which asks once per cell.
    const auto wrap = [lanes](int v) {
        return (lanes & (lanes - 1)) == 0 ? v & (lanes - 1) : v % lanes;
    };
    switch (policy) {
      case LaneAssignment::ZOnly:
        return wrap(zBrick);
      case LaneAssignment::XYZHash:
        return wrap(zBrick + x + y);
      case LaneAssignment::WindowEven:
        return wrap(windowSeq);
    }
    return wrap(zBrick);
}

/**
 * Whether laneOf under `policy` reads windowSeq, so that a cell's
 * lanes follow its window's brick cursor; otherwise they depend on
 * its coordinates alone.
 */
constexpr bool
followsCursor(LaneAssignment policy)
{
    return policy == LaneAssignment::WindowEven;
}

} // namespace cnv::dadiannao

#endif // CNV_DADIANNAO_ASSIGNMENT_H
