// Test names for the net-layer suites.  The reactor and link suites were
// once parameterized over two I/O backends; epoll is the only one now, and
// each suite keeps its one `Backends/<suite>.<case>/epoll` instantiation so
// that its cases keep the names test history and filters know them by.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/io_backend.h"
#include "net/poller.h"

namespace rsf::net {

/// Base for suites that build their own loops (LinkHarness).
class BackendTest : public ::testing::TestWithParam<IoBackendKind> {};

/// A ready-made loop.
class BackendParamTest : public BackendTest {
 protected:
  void TearDown() override { loop_->Stop(); }

  std::unique_ptr<EventLoop> loop_ = std::make_unique<EventLoop>();
};

inline std::string BackendParamName(
    const ::testing::TestParamInfo<IoBackendKind>& info) {
  return IoBackendKindName(info.param);
}

#define RSF_INSTANTIATE_BACKEND_SUITE(suite)                          \
  INSTANTIATE_TEST_SUITE_P(Backends, suite,                           \
                           ::testing::Values(IoBackendKind::kEpoll),  \
                           BackendParamName)

}  // namespace rsf::net
