/**
 * @file
 * Shared test helper: RAII guard that drops any setStreamPolicy()
 * override on scope exit.
 */

#ifndef PANACEA_TESTS_POLICY_GUARD_H
#define PANACEA_TESTS_POLICY_GUARD_H

#include "core/kernel_cost_model.h"

namespace panacea {

class PolicyGuard
{
  public:
    PolicyGuard() = default;
    ~PolicyGuard() { resetStreamPolicy(); }

    PolicyGuard(const PolicyGuard &) = delete;
    PolicyGuard &operator=(const PolicyGuard &) = delete;
};

} // namespace panacea

#endif // PANACEA_TESTS_POLICY_GUARD_H
