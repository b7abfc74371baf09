// Error handling primitives for the loom library.
//
// Following the C++ Core Guidelines we use exceptions for error reporting
// (E.2) and an Expects/Ensures-style contract macro for precondition checks
// (I.6). Contract violations throw `loom::ContractViolation` so tests can
// assert on them; they are programming errors, not recoverable conditions.
#pragma once

#include <stdexcept>
#include <string>

namespace loom {

/// Base class for all errors thrown by the loom library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a configuration is internally inconsistent (bad layer
/// geometry, impossible accelerator dimensions, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// Thrown when a precondition (Expects) or postcondition (Ensures) fails.
class ContractViolation : public Error {
 public:
  explicit ContractViolation(const std::string& what) : Error(what) {}
};

// ---- Serving / robustness taxonomy ----------------------------------------
// The inference server reports *why* a request did not complete with a
// distinct type per cause, so callers can branch (retry later, resubmit at a
// higher priority, give up) without string-matching. ConfigError stays
// reserved for genuinely inconsistent configuration.

/// Thrown when admission control sheds a request under queue pressure —
/// either rejected at submit time (watermark crossed, bounded wait expired)
/// or evicted from the queue to make room for higher-priority work. The
/// request never ran; retrying later or at a higher priority may succeed.
class OverloadError : public Error {
 public:
  explicit OverloadError(const std::string& what) : Error(what) {}
};

/// Thrown (through the request's future) when a per-request deadline expired
/// before a result could be delivered — at batch formation or at completion.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what) : Error(what) {}
};

/// Thrown when a request is refused because the server is stopping (or has
/// stopped). Nothing is misconfigured and nothing was lost; the request was
/// simply submitted too late.
class ShutdownError : public Error {
 public:
  explicit ShutdownError(const std::string& what) : Error(what) {}
};

/// A (possibly transient) engine-run failure: the batch may succeed on
/// retry or on the scalar-oracle fallback. Also what the fault-injection
/// harness throws to exercise those paths.
class TransientEngineError : public Error {
 public:
  explicit TransientEngineError(const std::string& what) : Error(what) {}
};

/// Thrown by the shard router when a tenant's token bucket is empty: the
/// tenant exceeded its configured request rate. Distinct from OverloadError
/// — the system has capacity, this caller has spent its share. Accounted
/// separately from sheds in RouterStats.
class TenantQuotaError : public Error {
 public:
  explicit TenantQuotaError(const std::string& what) : Error(what) {}
};

/// Thrown when a binary model snapshot cannot be decoded: bad magic,
/// unsupported version, truncated or short-read file, out-of-bounds section
/// length, checksum mismatch, or a structurally invalid payload. Every
/// corrupted input must surface as this type — never UB or a crash.
class SnapshotError : public Error {
 public:
  explicit SnapshotError(const std::string& what) : Error(what) {}
};

/// Thrown when a persistent autotune cache cannot be used: bad magic,
/// version skew, truncation, checksum mismatch, a structurally invalid
/// cell — or a key mismatch (different CPU SIMD tier or tunable kernel
/// roster), which makes a well-formed cache foreign to this process. Loading
/// rejects the whole file; the autotuner's in-memory state is untouched.
class AutotuneCacheError : public Error {
 public:
  explicit AutotuneCacheError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* cond,
                                       const char* file, int line) {
  throw ContractViolation(std::string(kind) + " failed: " + cond + " at " +
                          file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace loom

// Precondition check: use at function entry to validate arguments.
#define LOOM_EXPECTS(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::loom::detail::contract_fail("Expects", #cond, __FILE__, __LINE__); \
  } while (false)

// Postcondition / invariant check.
#define LOOM_ENSURES(cond)                                               \
  do {                                                                   \
    if (!(cond))                                                         \
      ::loom::detail::contract_fail("Ensures", #cond, __FILE__, __LINE__); \
  } while (false)
