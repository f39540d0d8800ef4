#pragma once
// Error handling for pvcbench.
//
// Precondition violations and unrecoverable configuration errors throw
// `pvc::Error`.  Its what() is the message alone, so an error reads the
// same in every build tree; location() keeps the source location of the
// failed check.  Hot paths use `PVC_ASSERT` which compiles to nothing in
// release builds.
//
// Recoverable fault conditions (USM exhaustion, downed routes, aborted
// transfers, dead ranks — the situations the fault-injection layer
// provokes, see docs/ROBUSTNESS.md) additionally carry an ErrorCode so
// callers can branch on *what* failed, mirroring how Level-Zero returns
// ze_result_t codes next to the message.

#include <source_location>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace pvc {

/// What failed.  Modeled on the ze_result_t codes the paper's software
/// stack surfaces (ZE_RESULT_ERROR_OUT_OF_DEVICE_MEMORY, ...); Generic
/// covers plain contract violations from ensure().
enum class ErrorCode {
  Generic,            ///< contract violation / unclassified
  InvalidArgument,    ///< bad argument to an API entry point
  OutOfHostMemory,    ///< host DDR pool exhausted
  OutOfDeviceMemory,  ///< HBM pool exhausted
  LinkDown,           ///< route unavailable and no fallback exists
  TransferAborted,    ///< transfer failed after exhausting retries
  RankFailed,         ///< peer rank (or its whole node) is dead
};

[[nodiscard]] constexpr const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::Generic:
      return "generic";
    case ErrorCode::InvalidArgument:
      return "invalid_argument";
    case ErrorCode::OutOfHostMemory:
      return "out_of_host_memory";
    case ErrorCode::OutOfDeviceMemory:
      return "out_of_device_memory";
    case ErrorCode::LinkDown:
      return "link_down";
    case ErrorCode::TransferAborted:
      return "transfer_aborted";
    case ErrorCode::RankFailed:
      return "rank_failed";
  }
  return "?";
}

/// Exception thrown by `ensure()` on contract violations.  what() is
/// the message, prefixed by "[<code name>] " when the error is coded.
class Error : public std::runtime_error {
 public:
  Error(const std::string& message, std::source_location loc)
      : std::runtime_error(message), location_(loc) {}

  Error(ErrorCode code, const std::string& message, std::source_location loc)
      : std::runtime_error(std::string("[") + error_code_name(code) + "] " +
                           message),
        location_(loc),
        code_(code) {}

  [[nodiscard]] const std::source_location& location() const noexcept {
    return location_;
  }
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  std::source_location location_;
  ErrorCode code_ = ErrorCode::Generic;
};

/// Throws `pvc::Error` if `condition` is false.
inline void ensure(bool condition, const std::string& message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(message, loc);
  }
}

/// Literal-message overload: a string literal binds here by exact match,
/// so the std::string (a heap allocation for most messages) is only
/// materialised when the check actually fails.  This keeps ensure()
/// affordable on hot paths (Engine::schedule_at, FlowNetwork::start_flow).
inline void ensure(bool condition, const char* message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(message, loc);
  }
}

/// Coded variant: throws `pvc::Error` carrying `code` if `condition` is
/// false.  Use on recoverable fault paths callers may branch on.
inline void ensure(bool condition, ErrorCode code, const std::string& message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(code, message, loc);
  }
}

/// Literal-message coded variant (see above).
inline void ensure(bool condition, ErrorCode code, const char* message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(code, message, loc);
  }
}

/// Deferred-message variants: `make_message()` builds the message only
/// when the check fails, so a range check on a per-message path formats
/// no string while it passes.  Use one wherever the message is built
/// from runtime values (std::to_string, concatenation) and the check
/// runs on a run path: per event, kernel, transfer, message, table row
/// or bench run.  The std::string overloads above pay for that message
/// on every call, passing or not.
template <typename MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
inline void ensure(bool condition, MakeMessage&& make_message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(make_message(), loc);
  }
}

template <typename MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
inline void ensure(bool condition, ErrorCode code, MakeMessage&& make_message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) {
    throw Error(code, make_message(), loc);
  }
}

/// Unconditionally throws a coded `pvc::Error`.
[[noreturn]] inline void raise(
    ErrorCode code, const std::string& message,
    std::source_location loc = std::source_location::current()) {
  throw Error(code, message, loc);
}

/// Unconditionally reports an unreachable state.
[[noreturn]] inline void unreachable(
    const std::string& message,
    std::source_location loc = std::source_location::current()) {
  throw Error("unreachable: " + message, loc);
}

}  // namespace pvc

#ifndef NDEBUG
#define PVC_ASSERT(cond) \
  ::pvc::ensure((cond), "assertion failed: " #cond)
#else
#define PVC_ASSERT(cond) static_cast<void>(0)
#endif
