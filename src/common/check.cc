#include "src/common/check.h"

#include <cstdio>
#include <cstdlib>

namespace chronotier {
namespace internal {
namespace {

thread_local int t_capture_depth = 0;

[[noreturn]] void PrintAndAbort(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

CheckFailure::CheckFailure(const char* file, int line, const char* expression) {
  stream_ << file << ":" << line << ": CHECK failed: " << expression << " ";
}

CheckFailure::~CheckFailure() noexcept(false) {
  if (t_capture_depth > 0) {
    throw CheckFailedError(stream_.str());
  }
  PrintAndAbort(stream_.str());
}

ScopedCheckCapture::ScopedCheckCapture() { ++t_capture_depth; }
ScopedCheckCapture::~ScopedCheckCapture() { --t_capture_depth; }

}  // namespace internal

void CheckFailedError::Raise() const { internal::PrintAndAbort(message_); }

std::string SimError::Format() const {
  std::ostringstream os;
  os << what_ << " [tick=" << tick_ << "ns]";
  for (const auto& [key, value] : context_) {
    os << " " << key << "=" << value;
  }
  return os.str();
}

}  // namespace chronotier
