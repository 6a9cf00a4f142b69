#include "churn/churn_trace.h"

#include <set>

#include "common/check.h"
#include "oracle/wire.h"

namespace ron {

const char* to_string(ChurnOpKind kind) {
  switch (kind) {
    case ChurnOpKind::kJoin:
      return "join";
    case ChurnOpKind::kLeave:
      return "leave";
    case ChurnOpKind::kPublish:
      return "publish";
    case ChurnOpKind::kUnpublish:
      return "unpublish";
  }
  return "?";
}

std::size_t ChurnTrace::count(ChurnOpKind kind) const {
  std::size_t c = 0;
  for (const ChurnOp& op : ops) {
    if (op.kind == kind) ++c;
  }
  return c;
}

void ChurnTrace::validate(std::size_t n) const {
  std::set<std::string> seen;
  for (const std::string& name : objects) {
    RON_CHECK(!name.empty() && name.size() <= 256,
              "churn trace: object name of " << name.size() << " bytes");
    RON_CHECK(seen.insert(name).second,
              "churn trace: duplicate object name '" << name << "'");
  }
  for (const ChurnOp& op : ops) {
    RON_CHECK(op.kind <= ChurnOpKind::kUnpublish,
              "churn trace: unknown op kind "
                  << static_cast<unsigned>(op.kind));
    RON_CHECK(op.node < n, "churn trace: node " << op.node
                               << " out of range (n=" << n << ")");
    const bool wants_object = op.kind == ChurnOpKind::kPublish ||
                              op.kind == ChurnOpKind::kUnpublish;
    if (wants_object) {
      RON_CHECK(op.object < objects.size(),
                "churn trace: object index " << op.object << " out of range ("
                                             << objects.size() << " names)");
    } else {
      RON_CHECK(op.object == kInvalidObject,
                "churn trace: " << to_string(op.kind)
                                << " op carries an object index");
    }
  }
}

namespace {

template <typename Writer>
void write_trace_impl(Writer& w, const ChurnTrace& trace) {
  w.u64(trace.objects.size());
  for (const std::string& name : trace.objects) w.str(name);
  w.u64(trace.ops.size());
  for (const ChurnOp& op : trace.ops) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.u32(op.node);
    w.u32(op.object);
  }
}

template <typename Reader>
ChurnTrace read_trace_impl(Reader& r, std::size_t n) {
  ChurnTrace trace;
  // A name costs at least its length prefix plus one byte.
  const std::uint64_t names = r.read_count(8 + 1, "churn object name");
  trace.objects.reserve(static_cast<std::size_t>(names));
  for (std::uint64_t i = 0; i < names; ++i) trace.objects.push_back(r.str());
  const std::uint64_t ops = r.read_count(1 + 4 + 4, "churn op");
  trace.ops.reserve(static_cast<std::size_t>(ops));
  for (std::uint64_t i = 0; i < ops; ++i) {
    ChurnOp op;
    const std::uint8_t kind = r.u8();
    RON_CHECK(kind <= static_cast<std::uint8_t>(ChurnOpKind::kUnpublish),
              "snapshot: churn op kind " << +kind);
    op.kind = static_cast<ChurnOpKind>(kind);
    op.node = r.u32();
    op.object = r.u32();
    trace.ops.push_back(op);
  }
  trace.validate(n);
  return trace;
}

}  // namespace

void write_trace_payload(WireWriter& w, const ChurnTrace& trace) {
  write_trace_impl(w, trace);
}
void write_trace_payload(WireStreamWriter& w, const ChurnTrace& trace) {
  write_trace_impl(w, trace);
}

ChurnTrace read_trace_payload(WireReader& r, std::size_t n) {
  return read_trace_impl(r, n);
}
ChurnTrace read_trace_payload(WireStreamReader& r, std::size_t n) {
  return read_trace_impl(r, n);
}

}  // namespace ron
