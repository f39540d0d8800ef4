#include "comm/collectives.hpp"

#include <algorithm>
#include <cstring>

#include "comm/metrics_internal.hpp"
#include "core/error.hpp"

namespace pvc::comm {
namespace {

/// Elementwise sum-into used by the reduction combines.
void add_into(double* dst, const double* src, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] += src[i];
  }
}

sim::Time max_completion(std::span<Request> requests) {
  sim::Time t = 0.0;
  for (auto& r : requests) {
    t = std::max(t, r.complete_time());
  }
  return t;
}

/// One collective invocation entering the obs registry.
void count_collective() { detail::comm_metrics().collectives->add(1); }
/// One communication round (a wave of matched operations) within it.
void count_round() { detail::comm_metrics().collective_rounds->add(1); }

}  // namespace

sim::Time barrier(Communicator& comm) {
  count_collective();
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  std::vector<Request> requests;
  sim::Time finish = 0.0;
  // Dissemination barrier: round k, rank r signals (r + 2^k) % p.
  for (int stride = 1; stride < p; stride *= 2) {
    count_round();
    requests.clear();
    for (int r = 0; r < p; ++r) {
      const int peer = (r + stride) % p;
      const int from = (r - stride % p + p) % p;
      requests.push_back(comm.isend(r, peer, /*tag=*/9000 + stride, 0.0));
      requests.push_back(comm.irecv(r, from, /*tag=*/9000 + stride, 0.0));
    }
    comm.wait_all(requests);
    finish = std::max(finish, max_completion(requests));
  }
  return finish;
}

/// Ring all-reduce: p-1 reduce-scatter steps, then p-1 all-gather steps.
static sim::Time allreduce_ring(Communicator& comm,
                                std::vector<std::vector<double>>& rank_data,
                                double element_bytes) {
  count_collective();
  const int p = comm.size();
  ensure(static_cast<int>(rank_data.size()) == p,
         "allreduce_sum: one vector per rank required");
  const std::size_t n = rank_data.front().size();
  for (const auto& v : rank_data) {
    ensure(v.size() == n, "allreduce_sum: vectors must be equal-sized");
  }
  if (p == 1) {
    return comm.node().engine().now();
  }

  // Ring all-reduce: p-1 reduce-scatter steps then p-1 all-gather steps,
  // each moving one block of ~n/p elements per rank.
  const std::size_t block = (n + static_cast<std::size_t>(p) - 1) /
                            static_cast<std::size_t>(p);
  const auto block_range = [&](int b) {
    const std::size_t lo = std::min(n, static_cast<std::size_t>(b) * block);
    const std::size_t hi = std::min(n, lo + block);
    return std::pair<std::size_t, std::size_t>(lo, hi);
  };

  std::vector<Request> requests;
  std::vector<std::vector<double>> incoming(static_cast<std::size_t>(p));
  sim::Time finish = 0.0;

  for (int phase = 0; phase < 2; ++phase) {
    for (int step = 0; step < p - 1; ++step) {
      count_round();
      requests.clear();
      for (int r = 0; r < p; ++r) {
        const int dst = (r + 1) % p;
        // Block index this rank transmits at this step of this phase
        // (standard ring-allreduce schedule).  Sending a span straight
        // from rank_data is safe because every delivery completes inside
        // wait_all, before the combine loop below mutates any block.
        const int send_block =
            phase == 0 ? (r - step + p) % p : (r - step + 1 + p) % p;
        const auto [slo, shi] = block_range(send_block);
        const double bytes = static_cast<double>(shi - slo) * element_bytes;
        requests.push_back(comm.isend(
            r, dst, 100 + step, bytes,
            std::span<const double>(
                rank_data[static_cast<std::size_t>(r)].data() + slo,
                shi - slo)));
      }
      // Receives: each rank receives its predecessor's block.
      for (int r = 0; r < p; ++r) {
        const int src = (r - 1 + p) % p;
        const int send_block_of_src =
            phase == 0 ? (src - step + p) % p : (src - step + 1 + p) % p;
        const auto [lo, hi] = block_range(send_block_of_src);
        auto& row = incoming[static_cast<std::size_t>(r)];
        row.resize(hi - lo);
        const double bytes = static_cast<double>(hi - lo) * element_bytes;
        requests.push_back(
            comm.irecv(r, src, 100 + step, bytes, std::span<double>(row)));
      }
      comm.wait_all(requests);
      finish = std::max(finish, max_completion(requests));

      // Combine (phase 0) or overwrite (phase 1) the received block.
      for (int r = 0; r < p; ++r) {
        const int src = (r - 1 + p) % p;
        const int block_idx =
            phase == 0 ? (src - step + p) % p : (src - step + 1 + p) % p;
        const auto [lo, hi] = block_range(block_idx);
        auto& mine = rank_data[static_cast<std::size_t>(r)];
        const auto& in = incoming[static_cast<std::size_t>(r)];
        if (phase == 0) {
          add_into(mine.data() + lo, in.data(), hi - lo);
        } else {
          std::memcpy(mine.data() + lo, in.data(), (hi - lo) * sizeof(double));
        }
      }
    }
  }
  return finish;
}

/// Recursive doubling: log2(p) rounds; in round k every rank swaps its
/// full current vector with rank XOR 2^k and combines.  Latency-optimal
/// for small vectors on power-of-two rank counts.  Tags 150+stride sit
/// between the barrier (9000+) and ring (100+) ranges.
static sim::Time allreduce_recursive_doubling(
    Communicator& comm, std::vector<std::vector<double>>& rank_data,
    double element_bytes) {
  count_collective();
  const int p = comm.size();
  ensure(static_cast<int>(rank_data.size()) == p,
         "allreduce_sum: one vector per rank required");
  const std::size_t n = rank_data.front().size();
  for (const auto& v : rank_data) {
    ensure(v.size() == n, "allreduce_sum: vectors must be equal-sized");
  }
  if (p == 1) {
    return comm.node().engine().now();
  }
  ensure((p & (p - 1)) == 0, ErrorCode::InvalidArgument,
         "allreduce_sum: recursive doubling needs a power-of-two rank count");
  const double bytes = static_cast<double>(n) * element_bytes;
  std::vector<Request> requests;
  std::vector<std::vector<double>> incoming(static_cast<std::size_t>(p));
  sim::Time finish = 0.0;
  for (int stride = 1; stride < p; stride *= 2) {
    count_round();
    requests.clear();
    // Sends straight from rank_data are safe: every delivery completes
    // inside wait_all, before the combine below mutates any vector.
    for (int r = 0; r < p; ++r) {
      const int peer = r ^ stride;
      requests.push_back(comm.isend(
          r, peer, 150 + stride, bytes,
          std::span<const double>(rank_data[static_cast<std::size_t>(r)])));
    }
    for (int r = 0; r < p; ++r) {
      const int peer = r ^ stride;
      auto& row = incoming[static_cast<std::size_t>(r)];
      row.resize(n);
      requests.push_back(
          comm.irecv(r, peer, 150 + stride, bytes, std::span<double>(row)));
    }
    comm.wait_all(requests);
    finish = std::max(finish, max_completion(requests));
    for (int r = 0; r < p; ++r) {
      add_into(rank_data[static_cast<std::size_t>(r)].data(),
               incoming[static_cast<std::size_t>(r)].data(), n);
    }
  }
  return finish;
}

/// Reduce to rank 0 then broadcast: the classic small-message composite.
/// Counts as its two constituent collectives in the comm.* metrics.
static sim::Time allreduce_reduce_broadcast(
    Communicator& comm, std::vector<std::vector<double>>& rank_data,
    double element_bytes) {
  const int p = comm.size();
  ensure(static_cast<int>(rank_data.size()) == p,
         "allreduce_sum: one vector per rank required");
  const std::size_t n = rank_data.front().size();
  const double bytes = static_cast<double>(n) * element_bytes;
  sim::Time finish = reduce_sum_to_root(comm, rank_data, element_bytes);
  finish = std::max(finish, broadcast_from_root(comm, bytes));
  // broadcast_from_root times the tree but moves no payload — mirror the
  // root's sums into every rank so the result matches the other
  // algorithms bit for bit.
  for (int r = 1; r < p; ++r) {
    rank_data[static_cast<std::size_t>(r)] = rank_data[0];
  }
  return finish;
}

const char* allreduce_algorithm_name(AllreduceAlgorithm algo) {
  switch (algo) {
    case AllreduceAlgorithm::Auto:
      return "auto";
    case AllreduceAlgorithm::Ring:
      return "ring";
    case AllreduceAlgorithm::RecursiveDoubling:
      return "recursive-doubling";
    case AllreduceAlgorithm::ReduceBroadcast:
      return "reduce-broadcast";
  }
  return "?";
}

AllreduceAlgorithm allreduce_algorithm_for(double total_bytes, int ranks) {
  ensure(ranks >= 1, ErrorCode::InvalidArgument,
         "allreduce_algorithm_for: need at least one rank");
  ensure(total_bytes >= 0.0, ErrorCode::InvalidArgument,
         "allreduce_algorithm_for: negative byte count");
  if (ranks == 1) {
    return AllreduceAlgorithm::Ring;  // degenerate; any algorithm is a no-op
  }
  const bool pow2 = (ranks & (ranks - 1)) == 0;
  // The MPI-library switchover shape: latency-optimal algorithms win
  // while the vector is small, the bandwidth-optimal ring wins once the
  // 2(p-1) small blocks beat log2(p) full-vector rounds.
  if (pow2 && total_bytes <= 64.0 * 1024.0) {
    return AllreduceAlgorithm::RecursiveDoubling;
  }
  if (total_bytes <= 8.0 * 1024.0) {
    return AllreduceAlgorithm::ReduceBroadcast;
  }
  return AllreduceAlgorithm::Ring;
}

int allreduce_round_count(AllreduceAlgorithm algo, int ranks) {
  ensure(ranks >= 1, ErrorCode::InvalidArgument,
         "allreduce_round_count: need at least one rank");
  ensure(algo != AllreduceAlgorithm::Auto, ErrorCode::InvalidArgument,
         "allreduce_round_count: resolve Auto with allreduce_algorithm_for "
         "first");
  if (ranks == 1) {
    return 0;
  }
  const auto log2_floor = [](int n) {
    int bits = 0;
    while ((1 << (bits + 1)) <= n) {
      ++bits;
    }
    return bits;
  };
  switch (algo) {
    case AllreduceAlgorithm::Ring:
      return 2 * (ranks - 1);
    case AllreduceAlgorithm::RecursiveDoubling: {
      const int q = 1 << log2_floor(ranks);
      return log2_floor(q) + (ranks > q ? 2 : 0);
    }
    case AllreduceAlgorithm::ReduceBroadcast: {
      int top = 1;
      int rounds = 0;
      while (top < ranks) {
        top *= 2;
        ++rounds;  // ceil(log2(ranks)) reduce rounds
      }
      return rounds + log2_floor(top);  // + broadcast rounds
    }
    case AllreduceAlgorithm::Auto:
      break;
  }
  unreachable("allreduce_round_count: bad algorithm");
}

sim::Time allreduce_sum(Communicator& comm,
                        std::vector<std::vector<double>>& rank_data,
                        double element_bytes, AllreduceAlgorithm algo) {
  if (algo == AllreduceAlgorithm::Auto) {
    ensure(!rank_data.empty(), "allreduce_sum: one vector per rank required");
    const double total =
        static_cast<double>(rank_data.front().size()) * element_bytes;
    algo = allreduce_algorithm_for(total, comm.size());
  }
  switch (algo) {
    case AllreduceAlgorithm::RecursiveDoubling:
      return allreduce_recursive_doubling(comm, rank_data, element_bytes);
    case AllreduceAlgorithm::ReduceBroadcast:
      return allreduce_reduce_broadcast(comm, rank_data, element_bytes);
    case AllreduceAlgorithm::Auto:
    case AllreduceAlgorithm::Ring:
      break;
  }
  return allreduce_ring(comm, rank_data, element_bytes);
}

sim::Time halo_exchange_ring(Communicator& comm, double halo_bytes) {
  count_collective();
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  count_round();
  std::vector<Request> requests;
  requests.reserve(4 * static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const int up = (r + 1) % p;
    const int down = (r - 1 + p) % p;
    requests.push_back(comm.isend(r, up, 200, halo_bytes));
    requests.push_back(comm.isend(r, down, 201, halo_bytes));
    requests.push_back(comm.irecv(r, down, 200, halo_bytes));
    requests.push_back(comm.irecv(r, up, 201, halo_bytes));
  }
  comm.wait_all(requests);
  return max_completion(requests);
}

sim::Time gather_to_root(Communicator& comm, double block_bytes) {
  count_collective();
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  count_round();
  std::vector<Request> requests;
  requests.reserve(2 * static_cast<std::size_t>(p));
  for (int r = 1; r < p; ++r) {
    requests.push_back(comm.isend(r, 0, 300 + r, block_bytes));
    requests.push_back(comm.irecv(0, r, 300 + r, block_bytes));
  }
  comm.wait_all(requests);
  return max_completion(requests);
}

sim::Time broadcast_from_root(Communicator& comm, double bytes) {
  count_collective();
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  std::vector<Request> requests;
  sim::Time finish = 0.0;
  // Binomial tree: in round k, ranks < 2^k send to rank + 2^k.
  for (int stride = 1; stride < p; stride *= 2) {
    requests.clear();
    for (int r = 0; r < stride && r + stride < p; ++r) {
      requests.push_back(comm.isend(r, r + stride, 400 + stride, bytes));
      requests.push_back(comm.irecv(r + stride, r, 400 + stride, bytes));
    }
    if (!requests.empty()) {
      count_round();
      comm.wait_all(requests);
      finish = std::max(finish, max_completion(requests));
    }
  }
  return finish;
}

sim::Time alltoall(Communicator& comm, double block_bytes) {
  count_collective();
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  std::vector<Request> requests;
  std::vector<bool> paired;
  sim::Time finish = 0.0;
  // Pairwise exchange: in round k, rank r trades with r XOR k when that
  // partner exists (works perfectly for power-of-two P; other ranks sit
  // the round out and use a shifted partner in the ring fallback).
  for (int round = 1; round < p; ++round) {
    requests.clear();
    paired.assign(static_cast<std::size_t>(p), false);
    for (int r = 0; r < p; ++r) {
      int partner = r ^ round;
      if (partner >= p) {
        partner = (r + round) % p;  // ring fallback for ragged sizes
      }
      if (partner == r || paired[static_cast<std::size_t>(r)] ||
          paired[static_cast<std::size_t>(partner)]) {
        continue;
      }
      paired[static_cast<std::size_t>(r)] = true;
      paired[static_cast<std::size_t>(partner)] = true;
      requests.push_back(comm.isend(r, partner, 500 + round, block_bytes));
      requests.push_back(comm.isend(partner, r, 500 + round, block_bytes));
      requests.push_back(comm.irecv(r, partner, 500 + round, block_bytes));
      requests.push_back(comm.irecv(partner, r, 500 + round, block_bytes));
    }
    if (!requests.empty()) {
      count_round();
      comm.wait_all(requests);
      finish = std::max(finish, max_completion(requests));
    }
  }
  return finish;
}

sim::Time reduce_sum_to_root(Communicator& comm,
                             std::vector<std::vector<double>>& rank_data,
                             double element_bytes) {
  count_collective();
  const int p = comm.size();
  ensure(static_cast<int>(rank_data.size()) == p,
         "reduce_sum_to_root: one vector per rank required");
  const std::size_t n = rank_data.front().size();
  for (const auto& v : rank_data) {
    ensure(v.size() == n, "reduce_sum_to_root: vectors must be equal-sized");
  }
  if (p == 1) {
    return comm.node().engine().now();
  }
  std::vector<Request> requests;
  std::vector<std::pair<int, int>> edges;  // (sender, receiver)
  std::vector<std::vector<double>> incoming(static_cast<std::size_t>(p));
  sim::Time finish = 0.0;
  const double bytes = static_cast<double>(n) * element_bytes;
  // Binomial tree: in round k (stride 2^k), rank r with r % 2^(k+1) ==
  // 2^k sends its partial to r - 2^k.
  for (int stride = 1; stride < p; stride *= 2) {
    requests.clear();
    edges.clear();
    for (int r = 0; r < p; ++r) {
      if (r % (2 * stride) == stride) {
        const int dst = r - stride;
        edges.emplace_back(r, dst);
        requests.push_back(
            comm.isend(r, dst, 600 + stride, bytes,
                       std::span<const double>(
                           rank_data[static_cast<std::size_t>(r)])));
        auto& row = incoming[static_cast<std::size_t>(dst)];
        row.resize(n);
        requests.push_back(
            comm.irecv(dst, r, 600 + stride, bytes, std::span<double>(row)));
      }
    }
    if (requests.empty()) {
      continue;
    }
    count_round();
    comm.wait_all(requests);
    finish = std::max(finish, max_completion(requests));
    for (const auto& [src, dst] : edges) {
      auto& acc = rank_data[static_cast<std::size_t>(dst)];
      const auto& in = incoming[static_cast<std::size_t>(dst)];
      add_into(acc.data(), in.data(), n);
      static_cast<void>(src);
    }
  }
  return finish;
}

sim::Time sendrecv(Communicator& comm, int rank_a, int rank_b, double bytes) {
  std::vector<Request> requests;
  requests.reserve(4);
  requests.push_back(comm.isend(rank_a, rank_b, 700, bytes));
  requests.push_back(comm.isend(rank_b, rank_a, 701, bytes));
  requests.push_back(comm.irecv(rank_b, rank_a, 700, bytes));
  requests.push_back(comm.irecv(rank_a, rank_b, 701, bytes));
  comm.wait_all(requests);
  return max_completion(requests);
}

namespace {

/// Smallest power of two >= p (p >= 1), and its exponent.
[[nodiscard]] int pow2_ceil(int p) {
  int top = 1;
  while (top < p) {
    top *= 2;
  }
  return top;
}

[[nodiscard]] int log2_exact(int pow2) {
  int e = 0;
  while ((1 << e) < pow2) {
    ++e;
  }
  return e;
}

}  // namespace

int cluster_allreduce_rounds(sim::CollectiveAlgo algo, int ranks) {
  ensure(ranks >= 1, ErrorCode::InvalidArgument,
         "cluster_allreduce_rounds: ranks must be positive");
  if (ranks <= 1) {
    return 0;
  }
  switch (algo) {
    case sim::CollectiveAlgo::Ring:
      return 2 * (ranks - 1);
    case sim::CollectiveAlgo::RecursiveDoubling:
      ensure((ranks & (ranks - 1)) == 0, ErrorCode::InvalidArgument,
             "cluster_allreduce_rounds: recursive doubling needs a "
             "power-of-two rank count");
      return log2_exact(ranks);
    case sim::CollectiveAlgo::BinomialTree:
      return 2 * log2_exact(pow2_ceil(ranks));
  }
  unreachable("cluster_allreduce_rounds: bad algo");
}

std::vector<ClusterComm::Message> cluster_allreduce_round(
    sim::CollectiveAlgo algo, int ranks, int round, double bytes) {
  ensure(round >= 0 && round < cluster_allreduce_rounds(algo, ranks),
         ErrorCode::InvalidArgument,
         "cluster_allreduce_round: round out of range");
  std::vector<ClusterComm::Message> out;
  switch (algo) {
    case sim::CollectiveAlgo::Ring: {
      // Reduce-scatter then allgather: every round ships one bytes/p
      // block from each rank to its ring successor.
      const double block = bytes / static_cast<double>(ranks);
      out.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        out.push_back({r, (r + 1) % ranks, block});
      }
      break;
    }
    case sim::CollectiveAlgo::RecursiveDoubling: {
      const int stride = 1 << round;
      out.reserve(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        out.push_back({r, r ^ stride, bytes});
      }
      break;
    }
    case sim::CollectiveAlgo::BinomialTree: {
      // Binomial reduce onto rank 0, then the mirrored broadcast over
      // the padded power of two.
      const int reduce_rounds = log2_exact(pow2_ceil(ranks));
      if (round < reduce_rounds) {
        const int stride = 1 << round;
        for (int r = stride; r < ranks; r += 2 * stride) {
          out.push_back({r, r - stride, bytes});
        }
      } else {
        const int stride = pow2_ceil(ranks) >> (round - reduce_rounds + 1);
        for (int r = stride; r < ranks; r += 2 * stride) {
          out.push_back({r - stride, r, bytes});
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace pvc::comm
