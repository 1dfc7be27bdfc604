#ifndef CSXA_PERFBENCH_SPEED_H_
#define CSXA_PERFBENCH_SPEED_H_

/// \file speed.h
/// \brief The host's CPU speed, read from a fixed reference kernel.
///
/// The vCPUs of the hosts this benchmark was built on switch between a
/// fast and a slow speed, about 1.7x apart, for seconds to minutes at a
/// time, with no steal time accounted. The program's work slows with them,
/// and so does this kernel: SHA-256 compression rounds over 64 KiB, the
/// same kind of work as the card's crypto. It is the benchmark's own
/// code, so no change to the program changes its time. The gated times
/// are stated at the reference speed: a time taken while the kernel ran in
/// `k` ms is multiplied by kReferenceKernelMs / k.

#include <cstddef>
#include <vector>

namespace perfbench {

/// The unit of the gated times: the kernel's typical time on the 4-vCPU
/// Xeon VM the benchmark was tuned on, so that there they read close to
/// wall clock.
constexpr double kReferenceKernelMs = 0.4;

/// Timings of the reference kernel, taken while some work runs.
class SpeedLog {
 public:
  /// Times the kernel three times.
  void Sample();
  double mean_ms() const;
  /// Time spent in the kernel, to be taken out of the work's own time.
  double spent_ms() const;
  size_t samples() const { return ms_.size(); }
  /// Converts a time taken at the logged speed into one at the reference
  /// speed; 1 when nothing was logged.
  double scale() const;

 private:
  std::vector<double> ms_;
};

}  // namespace perfbench

#endif  // CSXA_PERFBENCH_SPEED_H_
