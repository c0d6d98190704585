// Reading registry series back in tests. A missing series fails the test
// (and reads as 0), so a renamed or mislabeled series can never pass an
// EXPECT_EQ(..., 0u) by accident.
#ifndef TESTS_TEST_METRICS_H_
#define TESTS_TEST_METRICS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/obs/registry.h"

namespace cxlpool {

inline uint64_t CounterValue(const obs::Registry& registry, const std::string& name,
                             const obs::Labels& labels = {}) {
  const obs::Counter* c = registry.FindCounter(name, labels);
  if (c == nullptr) {
    ADD_FAILURE() << "no counter series " << name;
    return 0;
  }
  return c->value();
}

inline int64_t GaugeValue(const obs::Registry& registry, const std::string& name,
                          const obs::Labels& labels = {}) {
  const obs::Gauge* g = registry.FindGauge(name, labels);
  if (g == nullptr) {
    ADD_FAILURE() << "no gauge series " << name;
    return 0;
  }
  return g->value();
}

// The base labels of per-host and per-device series.
inline obs::Labels HostLabels(uint32_t host) {
  return {{"host", std::to_string(host)}};
}
inline obs::Labels DeviceLabels(uint32_t device) {
  return {{"device", std::to_string(device)}};
}

}  // namespace cxlpool

#endif  // TESTS_TEST_METRICS_H_
