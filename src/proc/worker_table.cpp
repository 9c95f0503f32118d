#include "proc/worker_table.hpp"

#include <sstream>

namespace peak::proc {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

WorkerTable& WorkerTable::global() {
  static WorkerTable* table = new WorkerTable;
  return *table;
}

void WorkerTable::spawned(std::size_t slot, pid_t pid, bool respawn) {
  std::lock_guard lock(mutex_);
  Row& row = rows_[slot];  // keeps tasks_done, respawns, failure, label
  row.slot = slot;
  row.pid = pid;
  row.state = "idle";
  row.current_task = 0;
  if (respawn) ++row.respawns;
}

void WorkerTable::set_label(std::size_t slot, const std::string& label) {
  std::lock_guard lock(mutex_);
  rows_[slot].label = label;
}

void WorkerTable::running(std::size_t slot, std::size_t task) {
  std::lock_guard lock(mutex_);
  Row& row = rows_[slot];
  row.state = "running";
  row.current_task = task;
}

void WorkerTable::idle(std::size_t slot) {
  std::lock_guard lock(mutex_);
  rows_[slot].state = "idle";
}

void WorkerTable::exiting(std::size_t slot) {
  std::lock_guard lock(mutex_);
  rows_[slot].state = "exiting";
}

void WorkerTable::finished(std::size_t slot, std::uint64_t tasks_done) {
  std::lock_guard lock(mutex_);
  Row& row = rows_[slot];
  row.state = "done";
  row.pid = 0;
  row.tasks_done = tasks_done;
}

void WorkerTable::died(std::size_t slot,
                       const std::string& failure_signature) {
  std::lock_guard lock(mutex_);
  Row& row = rows_[slot];
  row.state = "dead";
  row.pid = 0;
  row.last_failure = failure_signature;
}

void WorkerTable::clear() {
  std::lock_guard lock(mutex_);
  rows_.clear();
}

std::vector<WorkerTable::Row> WorkerTable::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Row> rows;
  rows.reserve(rows_.size());
  for (const auto& [slot, row] : rows_) rows.push_back(row);
  return rows;
}

std::vector<pid_t> WorkerTable::live_pids() const {
  std::lock_guard lock(mutex_);
  std::vector<pid_t> pids;
  for (const auto& [slot, row] : rows_)
    if (row.pid > 0 && (row.state == "idle" || row.state == "running"))
      pids.push_back(row.pid);
  return pids;
}

std::string WorkerTable::json() const {
  const std::vector<Row> rows = snapshot();
  std::ostringstream os;
  os << "{\"workers\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    os << (i ? "," : "") << "{\"slot\":" << row.slot
       << ",\"pid\":" << row.pid << ",\"state\":\""
       << json_escape(row.state) << "\",\"current_task\":"
       << row.current_task << ",\"tasks_done\":" << row.tasks_done
       << ",\"respawns\":" << row.respawns << ",\"last_failure\":\""
       << json_escape(row.last_failure) << "\",\"label\":\""
       << json_escape(row.label) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace peak::proc
