#ifndef PS2_PERSIST_RECORD_CODEC_H_
#define PS2_PERSIST_RECORD_CODEC_H_

#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/query.h"

namespace ps2 {

// Shared CNF-query wire framing for the persist formats — WAL subscribe
// records and the checkpoint query section use the same shape and differ
// only in how a term is encoded (the WAL's hybrid string/raw-id encoding
// vs the checkpoint's positional u32 ids), which the caller supplies as a
// codec:
//   write_term(ByteWriter&, TermId)
//   read_term(ByteReader&) -> TermId
//
// Layout: u64 id, region f64 x4, u32 #clauses,
//         per clause: u32 #terms, term[]
// With `with_spec` (format version >= 2) the record appends the
// subscription-class fields: u8 class, f64 tau, u32 k. Version-1 readers
// never see them; version-2 readers decode version-1 records as boolean
// queries by passing with_spec = false.
template <typename WriteTermFn>
void WriteQueryRecord(ByteWriter& w, const STSQuery& q,
                      WriteTermFn&& write_term, bool with_spec = true) {
  w.Pod<uint64_t>(q.id);
  w.Pod<double>(q.region.min_x);
  w.Pod<double>(q.region.min_y);
  w.Pod<double>(q.region.max_x);
  w.Pod<double>(q.region.max_y);
  const auto& clauses = q.expr.clauses();
  w.Pod<uint32_t>(static_cast<uint32_t>(clauses.size()));
  for (const auto& clause : clauses) {
    w.Pod<uint32_t>(static_cast<uint32_t>(clause.size()));
    for (const TermId t : clause) write_term(w, t);
  }
  if (with_spec) {
    w.Pod<uint8_t>(static_cast<uint8_t>(q.cls));
    w.Pod<double>(q.tau);
    w.Pod<uint32_t>(q.k);
  }
}

// Bytes WriteQueryRecord emits for `q` (spec included) when every term
// takes `term_bytes` (a fixed-width codec) — the exact reserve for an
// encoder's buffer.
inline size_t QueryRecordBytes(const STSQuery& q, size_t term_bytes) {
  size_t n = sizeof(uint64_t) + 4 * sizeof(double) + sizeof(uint32_t);
  for (const auto& clause : q.expr.clauses()) {
    n += sizeof(uint32_t) + clause.size() * term_bytes;
  }
  return n + sizeof(uint8_t) + sizeof(double) + sizeof(uint32_t);
}

// Returns false on malformed input (declared counts are sanity-capped
// against the remaining bytes before any reserve).
template <typename ReadTermFn>
bool ReadQueryRecord(ByteReader& r, STSQuery* q, ReadTermFn&& read_term,
                     bool with_spec = true) {
  q->id = r.Pod<uint64_t>();
  const double mnx = r.Pod<double>();
  const double mny = r.Pod<double>();
  const double mxx = r.Pod<double>();
  const double mxy = r.Pod<double>();
  q->region = Rect(mnx, mny, mxx, mxy);
  const uint32_t num_clauses = r.Pod<uint32_t>();
  if (!r.FitsCount(num_clauses, sizeof(uint32_t))) return false;
  std::vector<std::vector<TermId>> clauses;
  clauses.reserve(num_clauses);
  for (uint32_t c = 0; c < num_clauses && r.ok(); ++c) {
    const uint32_t n = r.Pod<uint32_t>();
    if (!r.FitsCount(n, sizeof(uint32_t))) return false;
    std::vector<TermId> clause;
    clause.reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      clause.push_back(read_term(r));
    }
    clauses.push_back(std::move(clause));
  }
  if (!r.ok()) return false;
  q->expr = BoolExpr::Cnf(std::move(clauses));
  if (with_spec) {
    const uint8_t cls = r.Pod<uint8_t>();
    q->tau = r.Pod<double>();
    q->k = r.Pod<uint32_t>();
    if (!r.ok() || cls > static_cast<uint8_t>(SubscriptionClass::kTopK)) {
      return false;
    }
    q->cls = static_cast<SubscriptionClass>(cls);
  } else {
    q->cls = SubscriptionClass::kBoolean;
    q->tau = 0.0;
    q->k = 0;
  }
  return true;
}

}  // namespace ps2

#endif  // PS2_PERSIST_RECORD_CODEC_H_
