//===- support/FunctionRef.h - Non-owning callable reference ----*- C++ -*-===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-owning, non-allocating reference to a callable, in the style of
/// llvm::function_ref / C++26 std::function_ref. Two words wide (object
/// pointer + trampoline), trivially copyable, and free of the type-erased
/// heap allocation std::function may perform — the right parameter type
/// for hot-path callbacks (thread-pool loop bodies) that are invoked
/// inside the call they are passed to.
///
/// Like llvm::function_ref, a FunctionRef does not extend the lifetime of
/// the referenced callable: it must not be stored beyond the duration of
/// the call it was passed to unless the caller guarantees the callee
/// outlives it (the thread pool relies on this by joining every job
/// before parallelFor returns).
///
//===----------------------------------------------------------------------===//

#ifndef PSG_SUPPORT_FUNCTIONREF_H
#define PSG_SUPPORT_FUNCTIONREF_H

#include <cstdint>
#include <type_traits>
#include <utility>

namespace psg {

template <typename Fn> class FunctionRef;

/// Non-owning reference to a callable invocable as Ret(Params...).
template <typename Ret, typename... Params> class FunctionRef<Ret(Params...)> {
public:
  FunctionRef() = default;

  /// Binds to any callable except another FunctionRef of the same type
  /// (which copies instead, preserving the original referent).
  template <typename Callable,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<Callable>>,
                                FunctionRef> &&
                std::is_invocable_r_v<Ret, Callable &, Params...>>>
  FunctionRef(Callable &&Fn)
      : Object(reinterpret_cast<void *>(&Fn)),
        Trampoline(&invoke<std::remove_reference_t<Callable>>) {}

  Ret operator()(Params... Args) const {
    return Trampoline(Object, std::forward<Params>(Args)...);
  }

  /// True when bound to a callable.
  explicit operator bool() const { return Trampoline != nullptr; }

private:
  template <typename Callable>
  static Ret invoke(void *Object, Params... Args) {
    return (*reinterpret_cast<Callable *>(Object))(
        std::forward<Params>(Args)...);
  }

  void *Object = nullptr;
  Ret (*Trampoline)(void *, Params...) = nullptr;
};

} // namespace psg

#endif // PSG_SUPPORT_FUNCTIONREF_H
