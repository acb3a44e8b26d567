#include "src/robust/fault_injector.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace ullsnn::robust {

namespace {
void validate_rate(double rate, const char* what) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument(std::string("FaultInjector: ") + what +
                                " must be in [0, 1]");
  }
}
}  // namespace

FaultInjector::FaultInjector(FaultSpec spec) : spec_(spec), rng_(spec.seed) {
  validate_rate(spec_.weight_bitflip_rate, "weight_bitflip_rate");
  validate_rate(spec_.weight_signflip_rate, "weight_signflip_rate");
  validate_rate(spec_.stuck_at_zero_rate, "stuck_at_zero_rate");
  validate_rate(spec_.membrane_bitflip_rate, "membrane_bitflip_rate");
  validate_rate(spec_.stall_rate, "stall_rate");
  validate_rate(spec_.slow_replica_rate, "slow_replica_rate");
  if (spec_.stall_ms.count() < 0) {
    throw std::invalid_argument("FaultInjector: stall_ms must be non-negative");
  }
  if (spec_.slow_replica_factor < 1.0) {
    throw std::invalid_argument(
        "FaultInjector: slow_replica_factor must be >= 1 (a slowdown)");
  }
}

std::int64_t FaultInjector::inject_tensor_impl(Tensor& t, double rate,
                                               bool sign_only) {
  if (rate <= 0.0) return 0;
  t.detach();  // t[i] below mutates in place; artifact-borrowed weights must own first
  const auto p = static_cast<float>(rate);
  std::int64_t flips = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (!rng_.bernoulli(p)) continue;
    std::uint32_t bits = 0;
    std::memcpy(&bits, &t[i], sizeof bits);
    const int bit = sign_only ? 31 : static_cast<int>(rng_.uniform_int(32));
    bits ^= 1U << bit;
    std::memcpy(&t[i], &bits, sizeof bits);
    ++flips;
  }
  faults_.fetch_add(flips, std::memory_order_relaxed);
  return flips;
}

std::int64_t FaultInjector::inject_tensor(Tensor& t, double rate, bool sign_only) {
  MutexLock lock(mu_);
  return inject_tensor_impl(t, rate, sign_only);
}

std::int64_t FaultInjector::inject(const std::vector<dnn::Param*>& params) {
  MutexLock lock(mu_);
  std::int64_t injected = 0;
  for (dnn::Param* param : params) {
    Tensor& w = param->value;
    ++param->version;
    injected += inject_tensor_impl(w, spec_.weight_bitflip_rate, /*sign_only=*/false);
    injected += inject_tensor_impl(w, spec_.weight_signflip_rate, /*sign_only=*/true);
    // Stuck-at-zero: a dead output unit is its weight row forced to zero.
    // Scalars and vectors (thresholds, leaks, biases) have no row structure.
    if (spec_.stuck_at_zero_rate > 0.0 && w.rank() >= 2 && w.dim(0) > 0) {
      const std::int64_t rows = w.dim(0);
      const std::int64_t row_len = w.numel() / rows;
      const auto p = static_cast<float>(spec_.stuck_at_zero_rate);
      for (std::int64_t r = 0; r < rows; ++r) {
        if (!rng_.bernoulli(p)) continue;
        float* row = w.data() + r * row_len;
        std::memset(row, 0, static_cast<std::size_t>(row_len) * sizeof(float));
        ++injected;
        ++faults_;
      }
    }
  }
  return injected;
}

void FaultInjector::attach_membrane_faults(snn::SnnNetwork& net) {
  net.set_step_hook([this](snn::SnnNetwork& n, std::int64_t) {
    for (std::int64_t i = 0; i < n.size(); ++i) {
      if (snn::IfNeuron* neuron = n.layer(i).neuron_or_null()) {
        inject_tensor(neuron->membrane_mut(), spec_.membrane_bitflip_rate);
      }
    }
  });
}

bool FaultInjector::maybe_stall() {
  if (spec_.stall_rate <= 0.0 || spec_.stall_ms.count() <= 0) return false;
  bool fire = false;
  {
    MutexLock lock(mu_);
    fire = rng_.bernoulli(static_cast<float>(spec_.stall_rate));
  }
  if (!fire) return false;
  // Sleep outside the lock: concurrent workers stall independently instead
  // of serializing every injector draw behind one sleeping thread.
  std::this_thread::sleep_for(spec_.stall_ms);
  faults_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::replica_slowdown(std::int64_t worker_index) const {
  if (spec_.slow_replica_rate <= 0.0 || spec_.slow_replica_factor <= 1.0) {
    return 1.0;
  }
  // splitmix64 of (seed, index): a stateless hash rather than a stream draw,
  // so the slow set depends only on the spec — not on how many faults other
  // threads already drew from the shared RNG.
  std::uint64_t x = spec_.seed + 0x9E3779B97F4A7C15ULL *
                                     (static_cast<std::uint64_t>(worker_index) + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  return u < spec_.slow_replica_rate ? spec_.slow_replica_factor : 1.0;
}

void FaultInjector::corrupt_byte(const std::string& path, std::uint64_t offset,
                                 unsigned char mask) {
  if (mask == 0) {
    throw std::invalid_argument("FaultInjector::corrupt_byte: mask must be nonzero");
  }
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) {
    throw std::runtime_error("FaultInjector::corrupt_byte: cannot open " + path);
  }
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(f.tellg());
  if (offset >= size) {
    throw std::out_of_range("FaultInjector::corrupt_byte: offset " +
                            std::to_string(offset) + " beyond file size " +
                            std::to_string(size));
  }
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(static_cast<unsigned char>(byte) ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  if (!f) {
    throw std::runtime_error("FaultInjector::corrupt_byte: write failed for " + path);
  }
}

std::uint64_t FaultInjector::corrupt_random_byte(const std::string& path) {
  const auto size = std::filesystem::file_size(path);
  if (size == 0) {
    throw std::runtime_error("FaultInjector::corrupt_random_byte: empty file " + path);
  }
  std::uint64_t offset = 0;
  unsigned char mask = 0;
  {
    MutexLock lock(mu_);
    offset = static_cast<std::uint64_t>(
        rng_.uniform_int(static_cast<std::int64_t>(size)));
    mask = static_cast<unsigned char>(1U << rng_.uniform_int(8));
  }
  corrupt_byte(path, offset, mask);
  faults_.fetch_add(1, std::memory_order_relaxed);
  return offset;
}

void FaultInjector::truncate_file(const std::string& path, std::uint64_t new_size) {
  const auto size = std::filesystem::file_size(path);
  if (new_size >= size) {
    throw std::invalid_argument("FaultInjector::truncate_file: new size " +
                                std::to_string(new_size) +
                                " does not shrink file of " +
                                std::to_string(size) + " bytes");
  }
  std::error_code ec;
  std::filesystem::resize_file(path, new_size, ec);
  if (ec) {
    throw std::runtime_error("FaultInjector::truncate_file: resize failed for " +
                             path + ": " + ec.message());
  }
}

}  // namespace ullsnn::robust
