#include "obs/chrome_trace.h"

#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/jsonl.h"

namespace sunflow::obs {

namespace {

// Process ids of the three track groups.
constexpr int kPortsPid = 1;
constexpr int kCoflowsPid = 2;
constexpr int kSchedulerPid = 3;

// Scheduler-process tids.
constexpr int kComputeTid = 0;
constexpr int kStarvationTid = 1;

double Micros(Time t) { return t * 1e6; }

class Writer {
 public:
  explicit Writer(std::ostream& out) : out_(out) { out_ << "{\"traceEvents\":["; }

  void Close() { out_ << "\n]}\n"; }

  // One trace-event record. `extra` is raw JSON appended inside the object
  // (e.g. ",\"dur\":12.5" or args) — already escaped by the caller.
  void Record(const std::string& name, char phase, double ts, int pid,
              long long tid, const std::string& extra) {
    out_ << (first_ ? "\n" : ",\n");
    first_ = false;
    out_ << "{\"name\":\"" << EscapeJson(name) << "\",\"ph\":\"" << phase
         << "\",\"ts\":" << FormatJsonNumber(ts) << ",\"pid\":" << pid
         << ",\"tid\":" << tid << extra << "}";
  }

  void Meta(const std::string& what, const std::string& value, int pid,
            long long tid) {
    Record(what, 'M', 0, pid, tid,
           ",\"args\":{\"name\":\"" + EscapeJson(value) + "\"}");
  }

 private:
  std::ostream& out_;
  bool first_ = true;
};

std::string DurArgs(double dur_us, const std::string& args_json) {
  std::ostringstream os;
  os << ",\"dur\":" << FormatJsonNumber(dur_us);
  if (!args_json.empty()) os << ",\"args\":{" << args_json << "}";
  return os.str();
}

std::string Args(const std::string& args_json) {
  return args_json.empty() ? std::string()
                           : ",\"args\":{" + args_json + "}";
}

}  // namespace

void WriteChromeTrace(std::ostream& out, std::span<const Event> events) {
  Writer w(out);

  std::set<PortId> ports;
  std::set<CoflowId> coflows;

  for (const Event& e : events) {
    std::ostringstream name;
    std::ostringstream args;
    switch (e.type) {
      case EventType::kCircuitSetup: {
        ports.insert(e.in);
        name << "circuit " << e.in << "->" << e.out;
        args << "\"coflow\":" << e.coflow
             << ",\"setup_s\":" << FormatJsonNumber(e.value);
        w.Record(name.str(), 'X', Micros(e.t), kPortsPid, e.in,
                 DurArgs(Micros(e.dur), args.str()));
        // The δ prefix as a nested slice, so reconfiguration time is
        // visually distinct from transmission (Fig 1's hatched spans).
        if (e.value > 0) {
          w.Record("delta", 'X', Micros(e.t), kPortsPid, e.in,
                   DurArgs(Micros(e.value), ""));
        }
        break;
      }
      case EventType::kCircuitTeardown:
        ports.insert(e.in);
        name << "teardown " << e.in << "->" << e.out;
        w.Record(name.str(), 'i', Micros(e.t), kPortsPid, e.in,
                 ",\"s\":\"t\"");
        break;
      case EventType::kCoflowAdmitted:
        coflows.insert(e.coflow);
        name << "admitted";
        args << "\"planned_cct_s\":" << FormatJsonNumber(e.value);
        w.Record(name.str(), 'i', Micros(e.t), kCoflowsPid, e.coflow,
                 ",\"s\":\"t\"" + Args(args.str()));
        break;
      case EventType::kCoflowCompleted:
        coflows.insert(e.coflow);
        name << "coflow " << e.coflow;
        args << "\"cct_s\":" << FormatJsonNumber(e.value);
        // value carries the CCT, so the lifetime span is [t − cct, t].
        w.Record(name.str(), 'X', Micros(e.t - e.value), kCoflowsPid,
                 e.coflow, DurArgs(Micros(e.value), args.str()));
        break;
      case EventType::kFlowFinished:
        coflows.insert(e.coflow);
        name << "flow " << e.in << "->" << e.out << " done";
        w.Record(name.str(), 'i', Micros(e.t), kCoflowsPid, e.coflow,
                 ",\"s\":\"t\"");
        break;
      case EventType::kAssignmentComputed:
        name << "plan (" << e.count << " coflows)";
        args << "\"compute_ns\":" << FormatJsonNumber(e.value)
             << ",\"coflows\":" << e.count;
        w.Record(name.str(), 'i', Micros(e.t), kSchedulerPid, kComputeTid,
                 ",\"s\":\"t\"" + Args(args.str()));
        break;
      case EventType::kStarvationRound:
        name << "phi " << e.count;
        args << "\"k\":" << e.count;
        w.Record(name.str(), 'X', Micros(e.t), kSchedulerPid, kStarvationTid,
                 DurArgs(Micros(e.dur), args.str()));
        break;
      case EventType::kFlowBlocked:
        // Only the closing kFlowUnblocked knows the span length; the open
        // marker renders as an instant so half-open episodes (truncated
        // traces) still show up.
        coflows.insert(e.coflow);
        name << "blocked " << e.in << "->" << e.out << " ("
             << ToString(static_cast<BlockReason>(e.count)) << ")";
        args << "\"blamer\":" << static_cast<long long>(e.value)
             << ",\"reason\":\""
             << ToString(static_cast<BlockReason>(e.count)) << "\"";
        w.Record(name.str(), 'i', Micros(e.t), kCoflowsPid, e.coflow,
                 ",\"s\":\"t\"" + Args(args.str()));
        break;
      case EventType::kFlowUnblocked:
        coflows.insert(e.coflow);
        name << "wait " << e.in << "->" << e.out << " ("
             << ToString(static_cast<BlockReason>(e.count)) << ")";
        args << "\"blamer\":" << static_cast<long long>(e.value)
             << ",\"reason\":\""
             << ToString(static_cast<BlockReason>(e.count)) << "\"";
        // The episode as a span: [t − dur, t] on the coflow's track.
        w.Record(name.str(), 'X', Micros(e.t - e.dur), kCoflowsPid, e.coflow,
                 DurArgs(Micros(e.dur), args.str()));
        break;
    }
  }

  // Track naming metadata so Perfetto shows "port 3" / "coflow 12" instead
  // of bare tids.
  if (!ports.empty()) {
    w.Meta("process_name", "switch ports", kPortsPid, 0);
    for (const PortId p : ports) {
      w.Meta("thread_name", "port " + std::to_string(p), kPortsPid, p);
    }
  }
  if (!coflows.empty()) {
    w.Meta("process_name", "coflows", kCoflowsPid, 0);
    for (const CoflowId c : coflows) {
      w.Meta("thread_name", "coflow " + std::to_string(c), kCoflowsPid, c);
    }
  }
  w.Meta("process_name", "scheduler", kSchedulerPid, 0);
  w.Meta("thread_name", "compute", kSchedulerPid, kComputeTid);
  w.Meta("thread_name", "starvation guard", kSchedulerPid, kStarvationTid);

  w.Close();
}

void WriteChromeTraceFile(const std::string& path,
                          std::span<const Event> events) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace output " + path);
  WriteChromeTrace(f, events);
  // Flush before checking so a full disk surfaces here, not in the
  // silent ofstream destructor.
  f.flush();
  if (!f.good()) throw std::runtime_error("error writing trace to " + path);
}

}  // namespace sunflow::obs
