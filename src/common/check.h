// Always-on invariant checking.
//
// assert() compiles out under NDEBUG, which is exactly the build (Release) in which a
// tiering bug that loses a page or double-maps a frame does the most damage. CHECK() and
// friends stay armed in every build type: on failure they print the failed expression with
// file:line plus any streamed context, then abort. Context is streamed glog-style and is
// only evaluated on the failure path:
//
//   CHECK(free + pages <= capacity) << "tier=" << spec_.name << " free=" << free;
//   CHECK_EQ(lru_count, walk_count) << " node=" << node;
//
// SimError builds the structured fatal dumps the harness and the invariant auditor attach
// to a CHECK: a headline, the simulated tick, and key=value context lines.
//
// One thread may defer its failures instead: inside a ScopedCheckCapture (the workload
// generator thread, src/harness/op_pipeline.h) a failed CHECK throws CheckFailedError, and
// the owner re-raises it with Raise() on the thread where the failure is due. The printed
// message is the same either way.

#pragma once

#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/time.h"

namespace chronotier {
namespace internal {

// Collects streamed context and aborts in its destructor (end of the full expression), so
// every `<< ...` operand has been rendered by the time the process dies.
class CheckFailure {
 public:
  CheckFailure(const char* file, int line, const char* expression);
  // Prints and aborts, or throws CheckFailedError inside a ScopedCheckCapture; never
  // returns normally.
  ~CheckFailure() noexcept(false);

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

// Lowest-precedence-wins helper so the macro expands to a void expression.
struct CheckVoidify {
  void operator&(std::ostream&) {}
};

// While alive, failed CHECKs on the constructing thread throw CheckFailedError instead of
// aborting. Nests; strictly per thread.
class ScopedCheckCapture {
 public:
  ScopedCheckCapture();
  ~ScopedCheckCapture();
  ScopedCheckCapture(const ScopedCheckCapture&) = delete;
  ScopedCheckCapture& operator=(const ScopedCheckCapture&) = delete;
};

}  // namespace internal

// A CHECK failure captured on a ScopedCheckCapture thread, carrying the full message.
class CheckFailedError : public std::exception {
 public:
  explicit CheckFailedError(std::string message) : message_(std::move(message)) {}
  const char* what() const noexcept override { return message_.c_str(); }
  // Prints the message and aborts, exactly as the CHECK would have in place.
  [[noreturn]] void Raise() const;

 private:
  std::string message_;
};

// Evaluates `condition` exactly once. The streamed context (and the repeated operand
// renderings in the _OP forms) is evaluated only when the check fails.
#define CHECK(condition)                                               \
  (condition) ? (void)0                                                \
              : ::chronotier::internal::CheckVoidify() &               \
                    ::chronotier::internal::CheckFailure(__FILE__, __LINE__, #condition) \
                        .stream()

#define CHRONOTIER_CHECK_OP(op, a, b)                                  \
  ((a)op(b)) ? (void)0                                                 \
             : ::chronotier::internal::CheckVoidify() &                \
                   ::chronotier::internal::CheckFailure(__FILE__, __LINE__, #a " " #op " " #b) \
                           .stream()                                   \
                       << "(" << (a) << " vs " << (b) << ") "

#define CHECK_EQ(a, b) CHRONOTIER_CHECK_OP(==, a, b)
#define CHECK_NE(a, b) CHRONOTIER_CHECK_OP(!=, a, b)
#define CHECK_GE(a, b) CHRONOTIER_CHECK_OP(>=, a, b)
#define CHECK_GT(a, b) CHRONOTIER_CHECK_OP(>, a, b)
#define CHECK_LE(a, b) CHRONOTIER_CHECK_OP(<=, a, b)
#define CHECK_LT(a, b) CHRONOTIER_CHECK_OP(<, a, b)

// A structured error report: what went wrong, at which simulated tick, with key=value
// context. Render with Format() into a CHECK stream (or a test expectation):
//
//   CHECK(found) << SimError("page vanished during commit", now)
//                       .Add("vpn", unit.vpn)
//                       .Add("tier", tier.spec().name)
//                       .Format();
class SimError {
 public:
  SimError(std::string what, SimTime tick) : what_(std::move(what)), tick_(tick) {}

  template <typename T>
  SimError& Add(const std::string& key, const T& value) {
    std::ostringstream os;
    os << value;
    context_.emplace_back(key, os.str());
    return *this;
  }

  const std::string& what() const { return what_; }
  SimTime tick() const { return tick_; }

  // "what [tick=...ns] key=value key=value ..."
  std::string Format() const;

 private:
  std::string what_;
  SimTime tick_;
  std::vector<std::pair<std::string, std::string>> context_;
};

}  // namespace chronotier
