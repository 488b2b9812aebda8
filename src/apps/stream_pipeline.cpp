#include "apps/stream_pipeline.hpp"

#include <atomic>

#include "dag/future.hpp"
#include "dag/parallel_for.hpp"

namespace spdag::apps {

namespace {

// splitmix64 finalizer: the per-delivery hash folded into the checksum and
// the stage value transformer. Pure, so the fold is schedule-independent.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct stream_ctx {
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> deliveries{0};
  std::uint32_t stages;
  std::uint32_t width;
  bool batch;
};

void run_stage(stream_ctx* c, std::uint64_t item, std::uint32_t s,
               std::uint64_t in);

// One delivery: fold the hash, and let consumer 0 carry the item onward.
// run_stage is a dag action, so it must come last.
void consume(stream_ctx* c, std::uint64_t item, std::uint32_t s,
             std::uint32_t j, std::uint64_t v) {
  c->checksum.fetch_add(mix(v ^ (std::uint64_t{j} << 32)),
                        std::memory_order_relaxed);
  c->deliveries.fetch_add(1, std::memory_order_relaxed);
  if (j == 0 && s + 1 < c->stages) run_stage(c, item, s + 1, v);
}

// Unbatched registration: a fork2 tree down to single future_then calls —
// one spawn per fork2 (future_then itself posts no edge) and one out-set
// CAS per consumer (the baseline path).
void register_rec(stream_ctx* c, future<std::uint64_t> f, std::uint64_t item,
                  std::uint32_t s, std::uint32_t j_lo, std::uint32_t count) {
  if (count >= 2) {
    fork2(
        [c, f, item, s, j_lo, count] {
          register_rec(c, f, item, s, j_lo, count / 2);
        },
        [c, f, item, s, j_lo, count] {
          register_rec(c, f, item, s, j_lo + count / 2, count - count / 2);
        });
  } else {
    future_then(f, [c, item, s, j_lo](std::uint64_t v) {
      consume(c, item, s, j_lo, v);
    });
  }
}

// One stage: produce the stage value into a fresh future on the left,
// register the `width`-consumer broadcast on the right.
void run_stage(stream_ctx* c, std::uint64_t item, std::uint32_t s,
               std::uint64_t in) {
  future<std::uint64_t> f = future<std::uint64_t>::make();
  const std::uint64_t out = mix(in ^ (s + 1));
  fork2([f, out] { f.complete(out, dag_engine::current_engine()); },
        [c, f, item, s] {
          if (c->batch) {
            future_then_group(f, c->width, [c, item, s](std::uint32_t j) {
              return [c, item, s, j](std::uint64_t v) {
                consume(c, item, s, j, v);
              };
            });
          } else {
            register_rec(c, f, item, s, 0, c->width);
          }
        });
}

}  // namespace

stream_result stream_run(runtime& rt, const stream_config& cfg) {
  if (cfg.items == 0 || cfg.stages == 0 || cfg.width == 0) return {};
  stream_ctx ctx{{}, {}, cfg.stages, cfg.width, cfg.batch};
  stream_ctx* c = &ctx;
  const std::uint64_t items = cfg.items;
  const std::uint64_t seed = cfg.seed;
  rt.run([c, items, seed] {
    // Grain must stay 1: run_stage is a dag action, so every item needs its
    // own vertex.
    auto body = [c, seed](std::size_t i) { run_stage(c, i, 0, mix(seed ^ i)); };
    if (c->batch) {
      parallel_for_blocked(0, items, 1, body);
    } else {
      parallel_for(0, items, 1, body);
    }
  });
  stream_result r;
  r.checksum = ctx.checksum.load(std::memory_order_relaxed);
  r.deliveries = ctx.deliveries.load(std::memory_order_relaxed);
  return r;
}

}  // namespace spdag::apps
