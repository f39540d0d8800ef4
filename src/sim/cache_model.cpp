#include "sim/cache_model.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "core/error.hpp"

namespace pvc::sim {

namespace detail {
void AlignedFree::operator()(void* p) const noexcept { std::free(p); }
}  // namespace detail

namespace {
bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

std::uint32_t floor_log2(std::uint64_t v) {
  std::uint32_t shift = 0;
  while ((v >> shift) > 1) {
    ++shift;
  }
  return shift;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

// SWAR byte-lane constants: kByteLow replicates a byte, kByteHigh marks
// each lane's top bit.  Every rank byte (including the kRankPad filler)
// stays <= 127, so the lane arithmetic below can never carry.
constexpr std::uint64_t kByteLow = 0x0101010101010101ull;
constexpr std::uint64_t kByteHigh = 0x8080808080808080ull;

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}

void store_u64(std::uint8_t* p, std::uint64_t x) {
  std::memcpy(p, &x, sizeof(x));
}

// Increments every rank byte below `touched`, eight ways per step:
// (b + 0x80 - touched) has its lane's top bit set exactly when
// b >= touched, so the complement's top bits select the lanes to bump.
void promote_ranks(std::uint8_t* ranks, std::uint32_t words,
                   std::uint32_t touched) {
  const std::uint64_t bias = kByteHigh - touched * kByteLow;
  for (std::uint32_t w = 0; w < words; ++w) {
    const std::uint64_t x = load_u64(ranks + 8 * w);
    const std::uint64_t ge = (x + bias) & kByteHigh;
    store_u64(ranks + 8 * w, x + ((~ge & kByteHigh) >> 7));
  }
}

// Index of the rank byte equal to `target` via the classic zero-byte
// probe on `x ^ (target * kByteLow)` — exact here because both operands
// stay <= 127.  The ranks are a permutation of 0..assoc-1, so a real
// `target` always exists.
std::uint32_t find_rank(const std::uint8_t* ranks, std::uint32_t words,
                        std::uint32_t target) {
  if constexpr (std::endian::native == std::endian::little) {
    const std::uint64_t pattern = target * kByteLow;
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::uint64_t y = load_u64(ranks + 8 * w) ^ pattern;
      const std::uint64_t zero = (y - kByteLow) & ~y & kByteHigh;
      if (zero != 0) {
        return 8 * w +
               static_cast<std::uint32_t>(std::countr_zero(zero)) / 8;
      }
    }
  } else {
    for (std::uint32_t b = 0; b < 8 * words; ++b) {
      if (ranks[b] == target) {
        return b;
      }
    }
  }
  return 0;  // unreachable for a valid rank permutation
}

// Way holding `tag`, or `assoc` on a miss.  Tags sit at the front of
// the set record, so the SSE2 paths compare four ways per step; the
// compare results funnel through saturating packs into a single
// movemask, keeping the dependency chain short.
std::uint32_t find_tag(const std::uint32_t* tags, std::uint32_t assoc,
                       std::uint32_t tag) {
#if defined(__SSE2__)
  const __m128i needle = _mm_set1_epi32(static_cast<int>(tag));
  const auto chunk = [&](std::uint32_t w) {
    return _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w)), needle);
  };
  if (assoc == 16) {
    const __m128i lo = _mm_packs_epi32(chunk(0), chunk(4));
    const __m128i hi = _mm_packs_epi32(chunk(8), chunk(12));
    const int mask = _mm_movemask_epi8(_mm_packs_epi16(lo, hi));
    return mask != 0 ? static_cast<std::uint32_t>(
                           std::countr_zero(static_cast<unsigned>(mask)))
                     : assoc;
  }
  if (assoc == 8) {
    const __m128i lo = _mm_packs_epi32(chunk(0), chunk(4));
    const int mask =
        _mm_movemask_epi8(_mm_packs_epi16(lo, _mm_setzero_si128()));
    return mask != 0 ? static_cast<std::uint32_t>(
                           std::countr_zero(static_cast<unsigned>(mask)))
                     : assoc;
  }
  if (assoc == 4) {
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(chunk(0)));
    return mask != 0 ? static_cast<std::uint32_t>(
                           std::countr_zero(static_cast<unsigned>(mask)))
                     : assoc;
  }
#endif
  for (std::uint32_t way = 0; way < assoc; ++way) {
    if (tags[way] == tag) {
      return way;
    }
  }
  return assoc;
}

void prefetch_for_write(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

// Constant-associativity wrappers: the dispatch in access_ctx() calls
// these for the common geometries so the probe/rank loops unroll with
// compile-time trip counts.
template <std::uint32_t Assoc>
std::uint32_t find_tag_n(const std::uint32_t* tags, std::uint32_t tag) {
  return find_tag(tags, Assoc, tag);
}
template <std::uint32_t Words>
void promote_ranks_n(std::uint8_t* ranks, std::uint32_t touched) {
  promote_ranks(ranks, Words, touched);
}
template <std::uint32_t Words>
std::uint32_t find_rank_n(const std::uint8_t* ranks, std::uint32_t target) {
  return find_rank(ranks, Words, target);
}

// Fused eviction step: one pass that bumps every rank below `target`
// (== assoc-1, so every real rank except the victim's; the kRankPad
// filler stays put) while locating the way that holds `target`.
template <std::uint32_t Words>
std::uint32_t evict_promote(std::uint8_t* ranks, std::uint32_t target) {
  const std::uint64_t bias = kByteHigh - target * kByteLow;
  const std::uint64_t pattern = target * kByteLow;
  std::uint32_t victim = 0;
  for (std::uint32_t w = 0; w < Words; ++w) {
    const std::uint64_t x = load_u64(ranks + 8 * w);
    if constexpr (std::endian::native == std::endian::little) {
      const std::uint64_t y = x ^ pattern;
      const std::uint64_t zero = (y - kByteLow) & ~y & kByteHigh;
      if (zero != 0) {
        victim =
            8 * w + static_cast<std::uint32_t>(std::countr_zero(zero)) / 8;
      }
    } else {
      for (std::uint32_t b = 0; b < 8; ++b) {
        if (ranks[8 * w + b] == target) {
          victim = 8 * w + b;
        }
      }
    }
    const std::uint64_t ge = (x + bias) & kByteHigh;
    store_u64(ranks + 8 * w, x + ((~ge & kByteHigh) >> 7));
  }
  return victim;
}

constexpr std::size_t kMaxLevels = 8;

// Stack-resident copy of one level's hot fields for the access loops.
// The record stores are plain uint32_t writes, so the optimizer must
// assume they could alias the heap-resident Level fields and reload
// them after every store; local copies whose address never escapes can
// live in registers across the whole block instead.  Hit/miss tallies
// accumulate here too and are folded back once per call.
struct LevelCtx {
  std::uint64_t sets;
  std::uint64_t set_mask;
  std::uint64_t fastmod_m;
  std::uint32_t* records;
  const std::string* name;  // cold path: tag-range error message
  double latency_cycles;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint32_t line_shift;
  std::uint32_t set_shift;
  std::uint32_t stride_shift;
  std::uint32_t assoc;
  std::uint32_t ranks_off;
  std::uint32_t rank_words;
  std::uint32_t epoch_off;
  std::uint32_t epoch;
  bool sets_pow2;
  bool two_lines;
};

std::uint64_t ctx_set_of(const LevelCtx& c, std::uint64_t line_addr) {
  if (c.sets_pow2) {
    return line_addr & c.set_mask;
  }
  // Lemire fast-mod: exact n % sets without a division.
  const std::uint64_t low = c.fastmod_m * line_addr;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(low) * c.sets) >> 64);
}

std::uint32_t ctx_tag_of(const LevelCtx& c, std::uint64_t line_addr) {
  const std::uint64_t tag = line_addr >> c.set_shift;
  if (tag >= ~0u) [[unlikely]] {
    raise(ErrorCode::InvalidArgument,
          "CacheHierarchy: address beyond the modelled tag range in " +
              *c.name);
  }
  return static_cast<std::uint32_t>(tag);
}

// One load through the hierarchy, operating entirely on LevelCtx state
// (plus the set records themselves).  Shared by access_one() and the
// access_run() block loop; forced inline so the block loop schedules
// consecutive accesses' record fetches and probes together.
#if defined(__GNUC__) || defined(__clang__)
[[gnu::always_inline]]
#endif
inline double access_ctx(LevelCtx* ctx, std::size_t nlevels, std::uint64_t addr,
                  double memory_latency, std::uint64_t& memory_fills,
                  std::uint32_t invalid_tag, std::uint8_t rank_pad) {
  double latency = memory_latency;
  std::size_t hit_level = nlevels;  // == nlevels means memory

  for (std::size_t i = 0; i < nlevels; ++i) {
    LevelCtx& c = ctx[i];
    const std::uint64_t line_addr = addr >> c.line_shift;
    const std::uint64_t set = ctx_set_of(c, line_addr);
    const std::uint32_t tag = ctx_tag_of(c, line_addr);
    std::uint32_t* rec = c.records + (set << c.stride_shift);
    if (rec[c.epoch_off] != c.epoch) [[unlikely]] {
      // First touch since reset(): materialise the record as empty.
      std::uint8_t* ranks = reinterpret_cast<std::uint8_t*>(rec + c.ranks_off);
      for (std::uint32_t way = 0; way < c.assoc; ++way) {
        rec[way] = invalid_tag;
        ranks[way] = static_cast<std::uint8_t>(way);
      }
      for (std::uint32_t b = c.assoc; b < 8 * c.rank_words; ++b) {
        ranks[b] = rank_pad;
      }
      rec[c.epoch_off] = c.epoch;
    }
    const std::uint32_t hit_way = c.assoc == 16 ? find_tag_n<16>(rec, tag)
                                  : c.assoc == 8 ? find_tag_n<8>(rec, tag)
                                  : c.assoc == 4 ? find_tag_n<4>(rec, tag)
                                  : find_tag(rec, c.assoc, tag);
    if (hit_way != c.assoc) {
      // Promote to MRU in-place — no tag movement.  Unconditional: when
      // the way is already MRU (touched == 0) no byte satisfies
      // rank < touched, so the pass is a numeric no-op — cheaper than a
      // data-dependent branch on an even hit/re-hit mix.
      std::uint8_t* ranks = reinterpret_cast<std::uint8_t*>(rec + c.ranks_off);
      const std::uint8_t touched = ranks[hit_way];
      if (c.rank_words == 1) {
        promote_ranks_n<1>(ranks, touched);
      } else if (c.rank_words == 2) {
        promote_ranks_n<2>(ranks, touched);
      } else {
        promote_ranks(ranks, c.rank_words, touched);
      }
      ranks[hit_way] = 0;
      ++c.hits;
      latency = c.latency_cycles;
      hit_level = i;
      break;
    }
    ++c.misses;
  }
  if (hit_level == nlevels) {
    ++memory_fills;
  }

  // Inclusive fill into every level nearer than the hit level (whose
  // records the probe above already materialised).  Empty ways always
  // occupy the highest ranks — they start as the tail of the identity
  // permutation and a promote never lifts a rank past the touched one —
  // so the LRU-rank way IS an empty way whenever one exists, and the
  // victim scan needs no separate invalid-way pass.
  for (std::size_t i = 0; i < hit_level && i < nlevels; ++i) {
    LevelCtx& c = ctx[i];
    const std::uint64_t line_addr = addr >> c.line_shift;
    const std::uint64_t set = ctx_set_of(c, line_addr);
    const std::uint32_t tag = ctx_tag_of(c, line_addr);
    std::uint32_t* rec = c.records + (set << c.stride_shift);
    std::uint8_t* ranks = reinterpret_cast<std::uint8_t*>(rec + c.ranks_off);
    std::uint32_t victim;
    if (c.rank_words == 1) {
      victim = evict_promote<1>(ranks, c.assoc - 1);
    } else if (c.rank_words == 2) {
      victim = evict_promote<2>(ranks, c.assoc - 1);
    } else {
      victim = find_rank(ranks, c.rank_words, c.assoc - 1);
      promote_ranks(ranks, c.rank_words, c.assoc - 1);
    }
    ranks[victim] = 0;
    rec[victim] = tag;
  }
  return latency;
}

// Template so the file-local helper can name the private Level type.
template <typename LevelT>
LevelCtx make_ctx(LevelT& level) {
  LevelCtx c;
  c.sets = level.sets;
  c.set_mask = level.set_mask;
  c.fastmod_m = level.fastmod_m;
  c.records = level.records;
  c.name = &level.spec.name;
  c.latency_cycles = level.spec.latency_cycles;
  c.hits = 0;
  c.misses = 0;
  c.line_shift = level.line_shift;
  c.set_shift = level.set_shift;
  c.stride_shift = level.stride_shift;
  c.assoc = level.assoc;
  c.ranks_off = level.ranks_off;
  c.rank_words = level.rank_words;
  c.epoch_off = level.epoch_off;
  c.epoch = level.epoch;
  c.sets_pow2 = level.sets_pow2;
  c.two_lines = level.two_lines;
  return c;
}

struct CacheMetrics {
  obs::Counter* accesses;
  obs::Counter* memory_fills;
};

CacheMetrics& cache_metrics() {
  // Handles rebind whenever the thread's active registry changes
  // (obs::ScopedRegistry isolates concurrent sweep workers).  Keyed on
  // the registry's unique id: a new registry can reuse a freed one's
  // address, which an address compare mistakes for "still bound".
  thread_local CacheMetrics m;
  thread_local std::uint64_t bound = 0;  // Registry::id(), never an address
  auto& reg = obs::Registry::active();
  if (bound == reg.id()) {
    return m;
  }
  bound = reg.id();
  m = [&reg] {
    CacheMetrics c;
    c.accesses = &reg.counter("cache.accesses", "loads",
                              "loads issued to the cache hierarchy");
    c.memory_fills = &reg.counter(
        "cache.memory.fills", "loads", "loads served by DRAM/HBM (all-miss)");
    return c;
  }();
  return m;
}

}  // namespace

CacheHierarchy::CacheHierarchy(std::vector<CacheLevelSpec> specs,
                               double memory_latency_cycles)
    : memory_latency_cycles_(memory_latency_cycles) {
  ensure(memory_latency_cycles > 0.0,
         "CacheHierarchy: memory latency must be positive");
  ensure(specs.size() <= kMaxLevels,
         "CacheHierarchy: more than 8 cache levels unsupported");
  levels_.reserve(specs.size());
  for (auto& spec : specs) {
    ensure(spec.size_bytes > 0 && spec.line_bytes > 0 &&
               spec.associativity > 0,
           "CacheHierarchy: level '" + spec.name + "' has zero geometry");
    ensure(is_power_of_two(spec.line_bytes),
           "CacheHierarchy: line size must be a power of two");
    ensure(spec.size_bytes % (spec.line_bytes * spec.associativity) == 0,
           "CacheHierarchy: size not divisible by line*associativity");
    // Rank bytes must stay below the kRankPad sentinel for the SWAR
    // arithmetic to be carry-free.
    ensure(spec.associativity <= 126,
           "CacheHierarchy: associativity above 126 unsupported");
    Level level;
    level.spec = spec;
    level.sets = spec.size_bytes / (spec.line_bytes * spec.associativity);
    level.assoc = static_cast<std::uint32_t>(spec.associativity);
    level.line_shift = floor_log2(spec.line_bytes);
    level.set_shift = floor_log2(level.sets);
    level.sets_pow2 = is_power_of_two(level.sets);
    level.set_mask = level.sets - 1;
    // Lemire fast-mod magic: for any 64-bit n, n % sets ==
    // ((__uint128_t)(m * n) * sets) >> 64 with m = 2^64 / sets + 1.
    level.fastmod_m =
        level.sets > 1 ? ~0ull / level.sets + 1 : 0;
    // Record layout: tags, then rank bytes at the next 8-byte boundary,
    // then the epoch stamp, rounded up to a power-of-two stride.
    level.rank_words = (level.assoc + 7) / 8;
    level.ranks_off = (level.assoc + 1u) & ~1u;
    level.epoch_off = level.ranks_off + 2 * level.rank_words;
    std::uint32_t stride = 4;
    while (stride < level.epoch_off + 1) {
      stride *= 2;
    }
    level.stride_shift = floor_log2(stride);
    level.two_lines = stride > 16;
    // Per-level handles live for this hierarchy only, so they bind to
    // the registry active where the hierarchy was constructed.
    auto& reg = obs::Registry::active();
    const std::string metric_base = "cache." + lowercase(spec.name);
    level.hits_batch.bind(
        reg.counter(metric_base + ".hits", "loads",
                    "loads whose line was resident in " + spec.name));
    level.misses_batch.bind(
        reg.counter(metric_base + ".misses", "loads",
                    "loads that missed " + spec.name));
    levels_.push_back(std::move(level));
  }
  // Latencies must grow monotonically outward, ending below memory.
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    ensure(levels_[i].spec.latency_cycles > levels_[i - 1].spec.latency_cycles,
           "CacheHierarchy: latencies must increase outward");
  }
  if (!levels_.empty()) {
    ensure(memory_latency_cycles > levels_.back().spec.latency_cycles,
           "CacheHierarchy: memory latency below last cache level");
  }
}

CacheHierarchy::~CacheHierarchy() { flush_metrics(); }

const CacheLevelSpec& CacheHierarchy::level_spec(std::size_t i) const {
  ensure(i < levels_.size(), "CacheHierarchy: bad level index");
  return levels_[i].spec;
}

const CacheLevelStats& CacheHierarchy::level_stats(std::size_t i) const {
  ensure(i < levels_.size(), "CacheHierarchy: bad level index");
  return levels_[i].stats;
}

const CacheLevelStats& CacheHierarchy::reference_level_stats(
    std::size_t i) const {
  ensure(i < levels_.size(), "CacheHierarchy: bad level index");
  return levels_[i].ref_stats;
}

std::uint64_t CacheHierarchy::set_of(const Level& level,
                                     std::uint64_t line_addr) noexcept {
  if (level.sets_pow2) {
    return line_addr & level.set_mask;
  }
  // Lemire fast-mod: exact n % sets without a division.
  const std::uint64_t low = level.fastmod_m * line_addr;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(low) * level.sets) >> 64);
}

std::uint32_t CacheHierarchy::tag_of(const Level& level,
                                     std::uint64_t line_addr) const {
  // Lines mapping to the same set differ by a multiple of `sets`
  // >= 2^set_shift, so the truncated high bits identify the line
  // uniquely within its set.
  const std::uint64_t tag = line_addr >> level.set_shift;
  if (tag >= kInvalidTag) [[unlikely]] {
    raise(ErrorCode::InvalidArgument,
          "CacheHierarchy: address beyond the modelled tag range in " +
              level.spec.name);
  }
  return static_cast<std::uint32_t>(tag);
}

void CacheHierarchy::allocate_records() {
  if (records_allocated_) {
    return;
  }
  for (auto& level : levels_) {
    // Zero-filled records carry epoch stamp 0, below every live epoch,
    // so they read as empty and materialise lazily on first touch.  Big
    // arrays get 2 MiB alignment plus MADV_HUGEPAGE (see the header
    // comment).
    const std::size_t record_bytes =
        (level.sets << level.stride_shift) * sizeof(std::uint32_t);
    constexpr std::size_t kHugePage = std::size_t{2} << 20;
    const std::size_t align = record_bytes >= kHugePage ? kHugePage : 64;
    const std::size_t alloc_bytes = (record_bytes + align - 1) & ~(align - 1);
    void* raw = std::aligned_alloc(align, alloc_bytes);
    ensure(raw != nullptr, "CacheHierarchy: set-record allocation failed");
    level.storage.reset(static_cast<std::uint32_t*>(raw));
    level.records = level.storage.get();
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (align == kHugePage) {
      madvise(raw, alloc_bytes, MADV_HUGEPAGE);  // advisory; failure is fine
    }
#endif
    std::memset(raw, 0, alloc_bytes);
  }
  records_allocated_ = true;
}

std::optional<double> CacheHierarchy::closed_form_chase(std::uint64_t lines,
                                                        std::uint64_t warmup,
                                                        std::uint64_t steps) {
  if (accesses_ != 0 || lines == 0) {
    return std::nullopt;
  }
  // The rule reads a line's set as its index mod `sets`, which holds
  // only for 64-byte lines; past the tag range access() would throw.
  for (const auto& level : levels_) {
    if (level.spec.line_bytes != 64 ||
        ((lines - 1) >> level.set_shift) >= kInvalidTag) {
      return std::nullopt;
    }
  }
  std::size_t hit_level = levels_.size();  // == size: memory serves it
  if (warmup < lines && steps <= lines - warmup) {
    // Every load touches its line for the first time: all cold.
  } else if (warmup == lines) {
    // The warm-up lap misses everywhere and leaves each set holding the
    // last `assoc` of its lines in cycle order.  Each timed lap then
    // replays every set's lines in the same cyclic order, so LRU keeps
    // all of them when they fit and evicts each one before its reuse
    // when they do not.  A level that misses passes the whole cycle on
    // to the next, which therefore sees the same pattern.
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      const Level& level = levels_[i];
      const std::uint64_t fewest = lines / level.sets;
      const std::uint64_t most = fewest + (lines % level.sets != 0 ? 1 : 0);
      if (most <= level.assoc) {
        hit_level = i;
        break;
      }
      if (fewest <= level.assoc) {
        return std::nullopt;  // mixed: the cycle's order decides
      }
    }
  } else {
    return std::nullopt;
  }

  for (std::size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].stats.misses += warmup + (i < hit_level ? steps : 0);
  }
  memory_fills_ += warmup;
  if (hit_level < levels_.size()) {
    levels_[hit_level].stats.hits += steps;
  } else {
    memory_fills_ += steps;
  }
  accesses_ += warmup + steps;
  return hit_level < levels_.size() ? levels_[hit_level].spec.latency_cycles
                                    : memory_latency_cycles_;
}

double CacheHierarchy::access_one(std::uint64_t addr) {
  allocate_records();
  LevelCtx ctx[kMaxLevels];
  const std::size_t nlevels = levels_.size();
  for (std::size_t i = 0; i < nlevels; ++i) {
    ctx[i] = make_ctx(levels_[i]);
  }
  std::uint64_t fills = 0;
  const double latency = access_ctx(ctx, nlevels, addr,
                                    memory_latency_cycles_, fills,
                                    kInvalidTag, kRankPad);
  for (std::size_t i = 0; i < nlevels; ++i) {
    levels_[i].stats.hits += ctx[i].hits;
    levels_[i].stats.misses += ctx[i].misses;
  }
  memory_fills_ += fills;
  return latency;
}

double CacheHierarchy::access(std::uint64_t addr) {
  ++accesses_;
  return access_one(addr);
}

double CacheHierarchy::access_run(std::span<const std::uint64_t> addrs) {
  allocate_records();
  accesses_ += addrs.size();
  LevelCtx ctx[kMaxLevels];
  const std::size_t nlevels = levels_.size();
  for (std::size_t i = 0; i < nlevels; ++i) {
    ctx[i] = make_ctx(levels_[i]);
  }
  // The block's addresses are known up front, so prefetch each level's
  // set record a fixed distance ahead; the record fetches then overlap
  // instead of serialising once the model state spills the host caches.
  constexpr std::size_t kPrefetchAhead = 16;
  const std::size_t n = addrs.size();
  std::uint64_t fills = 0;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      const std::uint64_t ahead = addrs[i + kPrefetchAhead];
      for (std::size_t l = 0; l < nlevels; ++l) {
        const LevelCtx& c = ctx[l];
        const std::uint64_t set = ctx_set_of(c, ahead >> c.line_shift);
        const std::uint32_t* rec = c.records + (set << c.stride_shift);
        prefetch_for_write(rec);
        if (c.two_lines) {
          prefetch_for_write(rec + 16);
        }
      }
    }
    total += access_ctx(ctx, nlevels, addrs[i], memory_latency_cycles_,
                        fills, kInvalidTag, kRankPad);
  }
  for (std::size_t i = 0; i < nlevels; ++i) {
    levels_[i].stats.hits += ctx[i].hits;
    levels_[i].stats.misses += ctx[i].misses;
  }
  memory_fills_ += fills;
  return total;
}

double CacheHierarchy::reference_access(std::uint64_t addr) {
  ++ref_accesses_;
  double latency = memory_latency_cycles_;
  std::size_t hit_level = levels_.size();

  for (std::size_t i = 0; i < levels_.size(); ++i) {
    Level& level = levels_[i];
    if (level.ref_tags.empty()) {
      level.ref_tags.assign(level.sets * level.assoc, kInvalidTag64);
    }
    const std::uint64_t line_addr = addr / level.spec.line_bytes;
    const std::uint64_t set = line_addr % level.sets;
    const std::size_t base =
        static_cast<std::size_t>(set) * level.spec.associativity;
    bool hit = false;
    for (std::size_t way = 0; way < level.spec.associativity; ++way) {
      if (level.ref_tags[base + way] == line_addr) {
        // Promote to MRU: shift ways [0, way) down by one.
        for (std::size_t w = way; w > 0; --w) {
          level.ref_tags[base + w] = level.ref_tags[base + w - 1];
        }
        level.ref_tags[base] = line_addr;
        hit = true;
        break;
      }
    }
    if (hit) {
      ++level.ref_stats.hits;
      latency = level.spec.latency_cycles;
      hit_level = i;
      break;
    }
    ++level.ref_stats.misses;
  }

  for (std::size_t i = 0; i < hit_level && i < levels_.size(); ++i) {
    Level& level = levels_[i];
    const std::uint64_t line_addr = addr / level.spec.line_bytes;
    const std::uint64_t set = line_addr % level.sets;
    const std::size_t base =
        static_cast<std::size_t>(set) * level.spec.associativity;
    // Evict LRU (last way) by shifting everything down.
    for (std::size_t w = level.spec.associativity - 1; w > 0; --w) {
      level.ref_tags[base + w] = level.ref_tags[base + w - 1];
    }
    level.ref_tags[base] = line_addr;
  }
  return latency;
}

void CacheHierarchy::flush_metrics() {
  // Resolve the thread-locally bound counters only when there is a
  // delta, so a hierarchy that saw no traffic registers no new names
  // (exactly as the seed's per-access instrumentation behaved).
  if (accesses_ != flushed_accesses_ ||
      memory_fills_ != flushed_memory_fills_) {
    auto& metrics = cache_metrics();
    metrics.accesses->add(accesses_ - flushed_accesses_);
    flushed_accesses_ = accesses_;
    metrics.memory_fills->add(memory_fills_ - flushed_memory_fills_);
    flushed_memory_fills_ = memory_fills_;
  }
  for (auto& level : levels_) {
    level.hits_batch.flush_total(level.stats.hits);
    level.misses_batch.flush_total(level.stats.misses);
  }
}

void CacheHierarchy::reset() {
  flush_metrics();
  for (auto& level : levels_) {
    // O(1) drop of all cached lines: bump the epoch so every record
    // reads as empty and re-initialises on first touch.
    ++level.epoch;
    if (level.epoch == 0) [[unlikely]] {
      // Epoch wrapped (after 2^32 resets): zero the records once so
      // stale stamps from the previous cycle cannot read as current.
      // Records not yet allocated start zeroed anyway.
      if (level.records != nullptr) {
        std::fill_n(level.records, level.sets << level.stride_shift, 0u);
      }
      level.epoch = 1;
    }
    level.stats = CacheLevelStats{};
    level.hits_batch.rebase();
    level.misses_batch.rebase();
    if (!level.ref_tags.empty()) {
      std::fill(level.ref_tags.begin(), level.ref_tags.end(), kInvalidTag64);
    }
    level.ref_stats = CacheLevelStats{};
  }
  accesses_ = 0;
  memory_fills_ = 0;
  flushed_accesses_ = 0;
  flushed_memory_fills_ = 0;
  ref_accesses_ = 0;
}

}  // namespace pvc::sim
