#pragma once

#include <stdexcept>
#include <string>

namespace sdft {

/// Base class for all errors raised by the sdft libraries.
///
/// Construction errors (ill-formed models, bad arguments) throw subclasses of
/// this type; numerical routines signal convergence problems the same way.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// A model (fault tree, CTMC, SD fault tree) violates a structural
/// well-formedness rule, e.g. cyclic definitions or dangling references.
class model_error : public error {
 public:
  explicit model_error(const std::string& what) : error(what) {}
};

/// A numeric routine received parameters outside its domain or failed to
/// converge within its configured bounds.
class numeric_error : public error {
 public:
  explicit numeric_error(const std::string& what) : error(what) {}
};

}  // namespace sdft

/// require_model(cond, what): throws sdft::model_error(what) unless `cond`
/// holds. A macro, so `what` is evaluated only when the check fails:
/// checks that build their message from node names sit on hot paths (one
/// per tree node or chain transition) and must cost a branch when they
/// pass.
#define require_model(cond, ...) \
  ((cond) ? void() : throw ::sdft::model_error(__VA_ARGS__))
