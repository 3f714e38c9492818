// Fundamental scalar/index types and BLAS-style enums shared by all layers.
#pragma once

#include <cstdint>
#include <limits>

namespace fth {

/// Index type used for all matrix dimensions and loops. Signed, so that
/// reverse loops and differences are safe (C++ Core Guidelines ES.100-107).
using index_t = std::int64_t;

/// Memory space a view's storage lives in. Views are tagged with their
/// space (see la/matrix.hpp); device-tagged views cannot be dereferenced
/// by host code without going through an explicit, checked gate, which is
/// what turns the "device memory is only touched inside stream tasks or
/// transfer routines" convention into a type error (DESIGN.md §10).
enum class MemSpace : unsigned char { Host, Device };

/// Operation applied to a matrix operand of a BLAS call.
enum class Trans : char { No = 'N', Yes = 'T' };

/// Which triangle of a matrix a triangular routine references.
enum class Uplo : char { Upper = 'U', Lower = 'L' };

/// Whether the referenced triangle has an implicit unit diagonal.
enum class Diag : char { NonUnit = 'N', Unit = 'U' };

/// Side from which a triangular operand (trmm) or a reflector (larf) is applied.
enum class Side : char { Left = 'L', Right = 'R' };

/// Machine epsilon for the working precision.
template <class T>
constexpr T eps() noexcept {
  return std::numeric_limits<T>::epsilon();
}

}  // namespace fth
