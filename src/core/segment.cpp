#include "core/segment.hpp"

#include <bit>
#include <new>

#include "core/fault.hpp"

namespace hq::detail {

namespace {

std::size_t segment_alignment(const element_ops* ops) {
  // The padded index lines require cache-line alignment of the header; the
  // slot array additionally honors the element alignment.
  std::size_t align = alignof(segment) > kCacheLine ? alignof(segment) : kCacheLine;
  return ops->align > align ? ops->align : align;
}

std::size_t padded_header(const element_ops* ops) {
  const std::size_t elem_align = ops->align > alignof(segment) ? ops->align
                                                               : alignof(segment);
  return (sizeof(segment) + elem_align - 1) / elem_align * elem_align;
}

}  // namespace

std::size_t segment::footprint_bytes(std::uint64_t capacity,
                                     const element_ops* ops) noexcept {
  return padded_header(ops) + capacity * ops->size;
}

segment* segment::create(std::uint64_t capacity, const element_ops* ops,
                         data_path_counts* counters) {
  assert(capacity >= 2 && std::has_single_bit(capacity));
  if (fault::failpoint("segment.alloc")) throw std::bad_alloc();
  // One allocation: [segment header | padding to element alignment | slots].
  const std::size_t align = segment_alignment(ops);
  const std::size_t header = padded_header(ops);
  const std::size_t bytes = header + capacity * ops->size;
  auto* raw =
      static_cast<std::byte*>(::operator new(bytes, std::align_val_t{align}));
  return ::new (raw) segment(capacity, ops, raw + header, counters);
}

void segment::destroy(segment* s) {
  assert(s->head.load(std::memory_order_relaxed) ==
             s->tail.load(std::memory_order_relaxed) &&
         "elements must be destroyed before freeing a segment");
  const std::size_t align = segment_alignment(s->ops);
  s->~segment();
  ::operator delete(static_cast<void*>(s), std::align_val_t{align});
}

}  // namespace hq::detail
