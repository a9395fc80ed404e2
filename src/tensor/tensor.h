/**
 * @file
 * Dense 3D and 4D tensors with the paper's coordinate conventions.
 *
 * A neuron array n(x, y, z) has dimensions Ix x Iy x I where z is
 * the feature (depth, "i") dimension. Storage is depth-fastest —
 * elements that share (x, y) and differ only in z are contiguous —
 * because ZFNAf bricks (Section IV-B1) are "aligned, continuous
 * along the input features dimension i" groups of 16 neurons.
 *
 * Filters s^f(x, y, z) add a fourth index f (the filter number).
 */

#ifndef CNV_TENSOR_TENSOR_H
#define CNV_TENSOR_TENSOR_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.h"

namespace cnv::tensor {

/** Shape of a 3D neuron array: Ix x Iy x depth. */
struct Shape3
{
    int x = 0;
    int y = 0;
    int z = 0;

    std::size_t
    volume() const
    {
        return static_cast<std::size_t>(x) * static_cast<std::size_t>(y) *
               static_cast<std::size_t>(z);
    }

    bool operator==(const Shape3 &) const = default;
};

/** Dense 3D tensor with depth-fastest storage. */
template <typename T>
class Tensor3
{
  public:
    Tensor3() = default;

    explicit Tensor3(Shape3 shape) : shape_(shape), data_(shape.volume()) {}

    Tensor3(int x, int y, int z) : Tensor3(Shape3{x, y, z}) {}

    /** Adopt `data`: shape.volume() elements, depth-fastest. */
    Tensor3(Shape3 shape, std::vector<T> data)
        : shape_(shape), data_(std::move(data))
    {
        CNV_ASSERT(data_.size() == shape_.volume(),
                   "{} elements for a {}x{}x{} tensor", data_.size(),
                   shape_.x, shape_.y, shape_.z);
    }

    const Shape3 &shape() const { return shape_; }
    std::size_t size() const { return data_.size(); }

    /** Linear index of element (x, y, z); depth-fastest order. */
    std::size_t
    index(int x, int y, int z) const
    {
        CNV_ASSERT(x >= 0 && x < shape_.x && y >= 0 && y < shape_.y &&
                   z >= 0 && z < shape_.z,
                   "tensor index ({},{},{}) out of shape ({},{},{})",
                   x, y, z, shape_.x, shape_.y, shape_.z);
        return (static_cast<std::size_t>(y) * shape_.x + x) * shape_.z + z;
    }

    T &at(int x, int y, int z) { return data_[index(x, y, z)]; }
    const T &at(int x, int y, int z) const { return data_[index(x, y, z)]; }

    /** Raw storage access (depth-fastest). */
    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    /** Pointer to the depth column at (x, y): &at(x, y, 0). */
    const T *
    column(int x, int y) const
    {
        return data_.data() + index(x, y, 0);
    }

    void
    fill(const T &v)
    {
        for (auto &e : data_)
            e = v;
    }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    bool
    operator==(const Tensor3 &other) const
    {
        return shape_ == other.shape_ && data_ == other.data_;
    }

  private:
    Shape3 shape_;
    std::vector<T> data_;
};

/** Shape of a filter bank: N filters of Fx x Fy x depth. */
struct Shape4
{
    int n = 0;
    int x = 0;
    int y = 0;
    int z = 0;

    std::size_t
    volume() const
    {
        return static_cast<std::size_t>(n) * static_cast<std::size_t>(x) *
               static_cast<std::size_t>(y) * static_cast<std::size_t>(z);
    }

    bool operator==(const Shape4 &) const = default;
};

/** Dense 4D tensor: N filters, each a depth-fastest 3D array. */
template <typename T>
class Tensor4
{
  public:
    Tensor4() = default;

    explicit Tensor4(Shape4 shape) : shape_(shape), data_(shape.volume()) {}

    Tensor4(int n, int x, int y, int z) : Tensor4(Shape4{n, x, y, z}) {}

    /** Adopt `data`: shape.volume() elements, filter-major. */
    Tensor4(Shape4 shape, std::vector<T> data)
        : shape_(shape), data_(std::move(data))
    {
        CNV_ASSERT(data_.size() == shape_.volume(),
                   "{} elements for a {}x{}x{}x{} filter bank",
                   data_.size(), shape_.n, shape_.x, shape_.y, shape_.z);
    }

    const Shape4 &shape() const { return shape_; }
    std::size_t size() const { return data_.size(); }

    std::size_t
    index(int n, int x, int y, int z) const
    {
        CNV_ASSERT(n >= 0 && n < shape_.n && x >= 0 && x < shape_.x &&
                   y >= 0 && y < shape_.y && z >= 0 && z < shape_.z,
                   "filter index ({},{},{},{}) out of shape ({},{},{},{})",
                   n, x, y, z, shape_.n, shape_.x, shape_.y, shape_.z);
        return ((static_cast<std::size_t>(n) * shape_.y + y) * shape_.x + x) *
                   shape_.z + z;
    }

    T &at(int n, int x, int y, int z) { return data_[index(n, x, y, z)]; }
    const T &
    at(int n, int x, int y, int z) const
    {
        return data_[index(n, x, y, z)];
    }

    T *data() { return data_.data(); }
    const T *data() const { return data_.data(); }

    void
    fill(const T &v)
    {
        for (auto &e : data_)
            e = v;
    }

  private:
    Shape4 shape_;
    std::vector<T> data_;
};

} // namespace cnv::tensor

#endif // CNV_TENSOR_TENSOR_H
