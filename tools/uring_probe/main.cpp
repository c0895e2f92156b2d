// uring_probe: exit 0 iff this host can create an io_uring instance with
// the opcodes the uring backend needs (net/uring_backend.h).
//
// CI uses this as an explicit gate: the uring job runs the probe first and
// turns "seccomp blocks io_uring_setup" into a loudly-logged skip instead
// of a silently green run that never exercised the backend.  Exit codes:
//   0  io_uring usable (setup + RECV/SENDMSG/ASYNC_CANCEL opcodes)
//   1  io_uring unavailable (reason printed to stdout)
#include <cstdio>

#include "net/io_backend.h"

int main() {
  if (rsf::net::UringAvailable()) {
    auto backend = rsf::net::MakeIoBackend(rsf::net::IoBackendKind::kUring);
    if (backend != nullptr && backend->SupportsSubmission()) {
      std::printf("io_uring usable\n");
      return 0;
    }
    std::printf("io_uring setup succeeded but required opcodes missing\n");
    return 1;
  }
  std::printf("io_uring unavailable: io_uring_setup probe failed "
              "(seccomp filter or pre-5.1 kernel)\n");
  return 1;
}
