// ASSERT_AUDIT_CLEAN(x): the tests' one invariant check.  Runs
// ca::audit::verify over `x` (a mem::FreeListAllocator or a
// dm::DataManager) and fails the test fatally, printing every violation,
// unless the report is clean.
#pragma once

#include <gtest/gtest.h>

#include "audit/audit.hpp"

namespace ca::testing {

template <class T>
::testing::AssertionResult audit_clean(const T& x) {
  const audit::AuditReport report = audit::verify(x);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

}  // namespace ca::testing

#define ASSERT_AUDIT_CLEAN(x) ASSERT_TRUE(::ca::testing::audit_clean(x))
