// Lightweight precondition / invariant checking used across all GMorph libraries.
//
// GMORPH_CHECK(cond) / GMORPH_CHECK(cond, streamed << message) is always on
// (release included): the search mutates graphs programmatically and silent
// shape corruption is far more expensive than the branch. GMORPH_DCHECK takes
// the same forms and compiles out under NDEBUG for hot inner loops.
//
// A failed check throws CheckError carrying the failing expression, location
// and message as structured fields, so the diagnostics engine
// (src/common/diagnostics.h) can convert fatal checks into the same
// Diagnostic records the verifiers emit — one reporting path for both.
#ifndef GMORPH_SRC_COMMON_CHECK_H_
#define GMORPH_SRC_COMMON_CHECK_H_

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace gmorph {

// Thrown on any failed runtime check. what() is the formatted one-line report;
// the individual fields stay accessible for structured consumers.
class CheckError : public std::runtime_error {
 public:
  CheckError(std::string expr, std::string file, int line, std::string message)
      : std::runtime_error(Format(expr, file, line, message)),
        expr_(std::move(expr)),
        file_(std::move(file)),
        line_(line),
        message_(std::move(message)) {}

  const std::string& expr() const { return expr_; }
  const std::string& file() const { return file_; }
  int line() const { return line_; }
  const std::string& message() const { return message_; }

 private:
  static std::string Format(const std::string& expr, const std::string& file, int line,
                            const std::string& message) {
    std::ostringstream os;
    os << "GMORPH_CHECK failed: " << expr << " at " << file << ":" << line;
    if (!message.empty()) {
      os << " — " << message;
    }
    return os.str();
  }

  std::string expr_;
  std::string file_;
  int line_;
  std::string message_;
};

namespace internal {

[[noreturn]] inline void CheckFail(const char* expr, const char* file, int line,
                                   const std::string& msg) {
  throw CheckError(expr, file, line, msg);
}

}  // namespace internal
}  // namespace gmorph

#define GMORPH_CHECK_BARE_(cond)                                         \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::gmorph::internal::CheckFail(#cond, __FILE__, __LINE__, "");      \
    }                                                                    \
  } while (0)

#define GMORPH_CHECK_MSG_(cond, msg)                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::ostringstream gmorph_check_os_;                               \
      gmorph_check_os_ << msg;                                           \
      ::gmorph::internal::CheckFail(#cond, __FILE__, __LINE__,           \
                                    gmorph_check_os_.str());             \
    }                                                                    \
  } while (0)

// Dispatches GMORPH_CHECK(cond) / GMORPH_CHECK(cond, msg) on arity. The
// message may be a `<<` chain; parenthesized commas inside it are fine.
#define GMORPH_CHECK_SELECT_(_1, _2, NAME, ...) NAME
#define GMORPH_CHECK(...) \
  GMORPH_CHECK_SELECT_(__VA_ARGS__, GMORPH_CHECK_MSG_, GMORPH_CHECK_BARE_)(__VA_ARGS__)

#ifdef NDEBUG
#define GMORPH_DCHECK(...) \
  do {                     \
  } while (0)
#else
#define GMORPH_DCHECK(...) GMORPH_CHECK(__VA_ARGS__)
#endif

#endif  // GMORPH_SRC_COMMON_CHECK_H_
