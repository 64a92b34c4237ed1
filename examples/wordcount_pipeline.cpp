// A three-stage text-processing pipeline: a reader task streams text lines
// into a hyperqueue, parallel tokenizer tasks split them into words on a
// second hyperqueue, and an ordered counter consumes the word stream.
// Demonstrates chained hyperqueues and dispatch-per-element spawning.
//
// The counts, and an order-sensitive digest of the word stream the counter
// pops, are checked against a plain loop over the same text: the example
// exits nonzero if the pipeline lost, added or reordered a word.
//
//   $ ./examples/wordcount_pipeline [workers] [kilobytes]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hq.hpp"
#include "util/datagen.hpp"

namespace {

void reader(const std::vector<std::uint8_t>* text, hq::pushdep<std::string> lines) {
  std::string cur;
  for (std::uint8_t b : *text) {
    if (b == '\n') {
      lines.push(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(static_cast<char>(b));
    }
  }
  if (!cur.empty()) lines.push(std::move(cur));
}

/// The words of a line, separated by spaces and periods.
template <typename F>
void split_words(const std::string& line, F&& f) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ' || line[i] == '.') {
      if (i > start) f(line.substr(start, i - start));
      start = i + 1;
    }
  }
}

void tokenize_line(std::string line, hq::pushdep<std::string> words) {
  split_words(line, [&words](std::string w) { words.push(std::move(w)); });
}

void tokenizer(hq::popdep<std::string> lines, hq::pushdep<std::string> words) {
  // One spawned task per line: tokens appear on `words` in line order even
  // though lines tokenize in parallel.
  while (!lines.empty()) {
    hq::spawn(tokenize_line, lines.pop(), words);
  }
  hq::sync();
}

/// Word counts plus an order-sensitive digest (FNV-1a over the words'
/// hashes) of the stream they were counted from.
struct tally {
  std::map<std::string, long> counts;
  long total = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;

  void add(const std::string& w) {
    ++counts[w];
    ++total;
    digest = (digest ^ std::hash<std::string>{}(w)) * 0x100000001b3ull;
  }
};

void counter(hq::popdep<std::string> words, tally* t) {
  while (!words.empty()) t->add(words.pop());
}

/// The same count as a plain loop over the text.
tally count_serially(const std::vector<std::uint8_t>& text) {
  tally t;
  std::string line;
  auto end_line = [&] {
    split_words(line, [&t](const std::string& w) { t.add(w); });
    line.clear();
  };
  for (std::uint8_t b : text) {
    if (b == '\n') {
      end_line();
    } else {
      line.push_back(static_cast<char>(b));
    }
  }
  end_line();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned workers = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
  const std::size_t kb = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 256;

  auto text = hq::util::gen_text(kb << 10, /*seed=*/2024);
  hq::scheduler sched(workers);
  tally got;
  sched.run([&] {
    hq::hyperqueue<std::string> lines(128);
    hq::hyperqueue<std::string> words(512);
    hq::spawn(reader, &text, (hq::pushdep<std::string>)lines);
    hq::spawn(tokenizer, (hq::popdep<std::string>)lines,
              (hq::pushdep<std::string>)words);
    hq::spawn(counter, (hq::popdep<std::string>)words, &got);
    hq::sync();
  });

  std::printf("counted %ld words, %zu distinct; top words:\n", got.total,
              got.counts.size());
  std::multimap<long, std::string, std::greater<>> by_count;
  for (const auto& [w, n] : got.counts) by_count.emplace(n, w);
  int shown = 0;
  for (const auto& [n, w] : by_count) {
    std::printf("  %6ld  %s\n", n, w.c_str());
    if (++shown == 5) break;
  }

  const tally want = count_serially(text);
  const bool ok = got.total > 0 && got.total == want.total &&
                  got.counts == want.counts && got.digest == want.digest;
  std::printf("%s the serial loop (%ld words, digest %016llx vs %016llx)\n",
              ok ? "matches" : "MISMATCH with", want.total,
              static_cast<unsigned long long>(got.digest),
              static_cast<unsigned long long>(want.digest));
  return ok ? 0 : 1;
}
