#include "tuple/matcher.h"

#include <algorithm>

namespace tiamat::tuples {

namespace {

std::uint64_t type_code(Type t, std::size_t field) {
  return (static_cast<std::uint64_t>(t) + 1) << (3 * field);
}

}  // namespace

std::uint64_t type_signature(const Tuple& t) {
  std::uint64_t sig = 0;
  const std::size_t n = std::min(t.arity(), kSignatureFields);
  for (std::size_t i = 0; i < n; ++i) sig |= type_code(t[i].type(), i);
  return sig;
}

CompiledPattern::CompiledPattern(Pattern p) : pattern_(std::move(p)) {
  const auto& fields = pattern_.fields();
  keyed_ = !fields.empty() && fields[0].kind() == Field::Kind::kActual;
  if (keyed_) key_hash_ = fields[0].actual().hash();

  // [key][rest][masked formals]: see the checks_ comment in the header.
  // Two passes instead of a side list keep compilation allocation-free
  // beyond checks_ itself.
  auto masked = [&](std::size_t i) {
    return fields[i].kind() == Field::Kind::kFormal && i < kSignatureFields;
  };
  checks_.reserve(fields.size());
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].kind() != Field::Kind::kWildcard && !masked(i)) {
      checks_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  rest_begin_ = keyed_ ? 1 : 0;
  rest_end_ = checks_.size();
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (!masked(i)) continue;
    type_mask_ |= std::uint64_t{7} << (3 * i);
    type_want_ |= type_code(fields[i].formal_type(), i);
    checks_.push_back(static_cast<std::uint32_t>(i));
  }
}

}  // namespace tiamat::tuples
