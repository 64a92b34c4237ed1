// Determinism stress: the paper's central claim is that a hyperqueue
// program produces the output of its serial elision on every execution,
// independent of the worker count and of how the scheduler interleaves
// producers and the consumer. Run the Figure-2 recursive-producer pipeline
// many times at 1/2/4/8 workers and require the serialized output bytes to
// be identical across every run and every worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hq.hpp"

namespace {

constexpr int kIterations = 50;
constexpr int kTotal = 1000;
const unsigned kWorkerCounts[] = {1, 2, 4, 8};

void recursive_producer(hq::pushdep<int> q, int start, int end) {
  if (end - start <= 10) {
    for (int n = start; n < end; ++n) q.push(n);
  } else {
    hq::spawn(recursive_producer, q, start, (start + end) / 2);
    hq::spawn(recursive_producer, q, (start + end) / 2, end);
    hq::sync();
  }
}

/// Consumer serializing each popped value to bytes; mixing in a running
/// accumulator makes the stream order-sensitive, so any reordering, loss or
/// duplication changes every subsequent byte.
void serializing_consumer(hq::popdep<int> q, std::vector<std::uint8_t>* out) {
  std::uint32_t acc = 0x9e3779b9u;
  while (!q.empty()) {
    const std::uint32_t v = static_cast<std::uint32_t>(q.pop());
    acc = acc * 1664525u + v;
    out->push_back(static_cast<std::uint8_t>(v));
    out->push_back(static_cast<std::uint8_t>(v >> 8));
    out->push_back(static_cast<std::uint8_t>(v >> 16));
    out->push_back(static_cast<std::uint8_t>(acc >> 24));
  }
  out->push_back(static_cast<std::uint8_t>(acc));
  out->push_back(static_cast<std::uint8_t>(acc >> 8));
  out->push_back(static_cast<std::uint8_t>(acc >> 16));
  out->push_back(static_cast<std::uint8_t>(acc >> 24));
}

std::vector<std::uint8_t> run_pipeline(unsigned workers,
                                       std::size_t segment_len) {
  hq::scheduler sched(workers);
  std::vector<std::uint8_t> bytes;
  sched.run([&] {
    hq::hyperqueue<int> queue(segment_len);
    hq::spawn(recursive_producer, (hq::pushdep<int>)queue, 0, kTotal);
    hq::spawn(serializing_consumer, (hq::popdep<int>)queue, &bytes);
    hq::sync();
  });
  return bytes;
}

/// The serial elision: what a sequential execution of the program computes.
std::vector<std::uint8_t> serial_elision() {
  std::vector<std::uint8_t> bytes;
  std::uint32_t acc = 0x9e3779b9u;
  for (int n = 0; n < kTotal; ++n) {
    const std::uint32_t v = static_cast<std::uint32_t>(n);
    acc = acc * 1664525u + v;
    bytes.push_back(static_cast<std::uint8_t>(v));
    bytes.push_back(static_cast<std::uint8_t>(v >> 8));
    bytes.push_back(static_cast<std::uint8_t>(v >> 16));
    bytes.push_back(static_cast<std::uint8_t>(acc >> 24));
  }
  bytes.push_back(static_cast<std::uint8_t>(acc));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 8));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 16));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 24));
  return bytes;
}

TEST(StressDeterminism, Figure2ByteIdenticalAcrossRunsAndWorkers) {
  const std::vector<std::uint8_t> expected = serial_elision();
  for (unsigned workers : kWorkerCounts) {
    for (int iter = 0; iter < kIterations; ++iter) {
      const std::vector<std::uint8_t> got =
          run_pipeline(workers, hq::hyperqueue<int>::kDefaultSegmentLength);
      ASSERT_EQ(got, expected)
          << "output diverged from the serial elision at workers=" << workers
          << " iteration=" << iter;
    }
  }
}

// --------------------------------------------------- flat fan-out stage

/// One of P sibling producers spawned back-to-back into the same queue:
/// the flat analogue of the recursive splitter above, and the shape that
/// exercises the sharded per-producer segment chains hardest — every
/// sibling holds a live push attachment at once, and the consumer must
/// stitch their chains back together in spawn order.
void fanout_producer(hq::pushdep<int> q, int producer, int per_producer,
                     std::uint32_t seed) {
  std::uint32_t x = seed ^ (0x9e3779b9u * static_cast<std::uint32_t>(producer + 1));
  for (int i = 0; i < per_producer; ++i) {
    x = x * 1664525u + 1013904223u;
    q.push(static_cast<int>(x >> 8));
  }
}

std::vector<std::uint8_t> run_fanout(unsigned workers, int producers,
                                     int per_producer, std::uint32_t seed,
                                     std::size_t segment_len) {
  hq::scheduler sched(workers);
  std::vector<std::uint8_t> bytes;
  sched.run([&] {
    hq::hyperqueue<int> queue(segment_len);
    for (int p = 0; p < producers; ++p) {
      hq::spawn(fanout_producer, (hq::pushdep<int>)queue, p, per_producer,
                seed);
    }
    hq::spawn(serializing_consumer, (hq::popdep<int>)queue, &bytes);
    hq::sync();
  });
  return bytes;
}

/// Serial elision of the fan-out program: producers run to completion in
/// spawn order, then the consumer serializes the concatenated stream.
std::vector<std::uint8_t> fanout_serial_elision(int producers,
                                                int per_producer,
                                                std::uint32_t seed) {
  std::vector<std::uint8_t> bytes;
  std::uint32_t acc = 0x9e3779b9u;
  for (int p = 0; p < producers; ++p) {
    std::uint32_t x = seed ^ (0x9e3779b9u * static_cast<std::uint32_t>(p + 1));
    for (int i = 0; i < per_producer; ++i) {
      x = x * 1664525u + 1013904223u;
      const std::uint32_t v = x >> 8;
      acc = acc * 1664525u + v;
      bytes.push_back(static_cast<std::uint8_t>(v));
      bytes.push_back(static_cast<std::uint8_t>(v >> 8));
      bytes.push_back(static_cast<std::uint8_t>(v >> 16));
      bytes.push_back(static_cast<std::uint8_t>(acc >> 24));
    }
  }
  bytes.push_back(static_cast<std::uint8_t>(acc));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 8));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 16));
  bytes.push_back(static_cast<std::uint8_t>(acc >> 24));
  return bytes;
}

TEST(StressDeterminism, FlatFanOutByteIdenticalAcrossSeedsAndWorkers) {
  constexpr int kProducerCounts[] = {2, 8, 64};
  constexpr std::uint32_t kSeeds[] = {7u, 0xdeadbeefu};
  constexpr int kPerProducer = 64;
  constexpr int kFanOutIterations = 5;
  const std::size_t segment_lens[] = {
      hq::hyperqueue<int>::kDefaultSegmentLength, 8};
  for (int producers : kProducerCounts) {
    for (std::uint32_t seed : kSeeds) {
      const std::vector<std::uint8_t> expected =
          fanout_serial_elision(producers, kPerProducer, seed);
      for (std::size_t segment_len : segment_lens) {
        for (unsigned workers : kWorkerCounts) {
          for (int iter = 0; iter < kFanOutIterations; ++iter) {
            const std::vector<std::uint8_t> got = run_fanout(
                workers, producers, kPerProducer, seed, segment_len);
            ASSERT_EQ(got, expected)
                << "fan-out output diverged from the serial elision at"
                << " producers=" << producers << " seed=" << seed
                << " segment_len=" << segment_len << " workers=" << workers
                << " iteration=" << iter;
          }
        }
      }
    }
  }
}

TEST(StressDeterminism, Figure2ByteIdenticalWithTinySegments) {
  // Segment length 8 forces constant segment chaining and recycling, the
  // paths where nondeterminism would most plausibly leak in. The fan-out
  // shape (8 sibling producers) runs alongside, so stitching many short
  // per-producer chains back together is gated at the same length.
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 64;
  constexpr std::uint32_t kSeed = 7u;
  const std::vector<std::uint8_t> expected = serial_elision();
  const std::vector<std::uint8_t> expected_fanout =
      fanout_serial_elision(kProducers, kPerProducer, kSeed);
  for (unsigned workers : kWorkerCounts) {
    for (int iter = 0; iter < kIterations; ++iter) {
      const std::vector<std::uint8_t> got = run_pipeline(workers, 8);
      ASSERT_EQ(got, expected)
          << "output diverged from the serial elision at workers=" << workers
          << " iteration=" << iter << " (segment length 8)";
      ASSERT_EQ(run_fanout(workers, kProducers, kPerProducer, kSeed, 8),
                expected_fanout)
          << "fan-out diverged from the serial elision at workers=" << workers
          << " iteration=" << iter << " (segment length 8)";
    }
  }
}

}  // namespace
