#include "comm/collectives.hpp"

#include <algorithm>
#include <vector>

#include "comm/metrics_internal.hpp"
#include "core/error.hpp"

namespace pvc::comm {

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

sim::Time halo_exchange_ring(Communicator& comm, double halo_bytes) {
  detail::comm_metrics().collectives->add(1);
  const int p = comm.size();
  if (p == 1) {
    return comm.node().engine().now();
  }
  detail::comm_metrics().collective_rounds->add(1);
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
  sim::Time finish = 0.0;
  for (const Request& r : requests) {
    finish = std::max(finish, r.complete_time());
  }
  return finish;
}

}  // namespace pvc::comm
