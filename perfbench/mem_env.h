// An in-memory `io::Env` that times and counts every durability-path call.
// The `ingest` workload's server keeps its write-ahead log here (passed in
// through `ServerOptions::env`), so WAL cost is the server's own work and not
// the shared disk's fsync latency; the log, its group commit and its fsyncs
// run unchanged and every Sync is still issued and counted.
#ifndef VZ_PERFBENCH_MEM_ENV_H_
#define VZ_PERFBENCH_MEM_ENV_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "io/env.h"

namespace vz::perfbench {

class MemEnv final : public io::Env {
 public:
  /// `spans` (not owned) receives one span per Append and Sync.
  explicit MemEnv(SpanLog* spans) : spans_(spans) {}

  struct Stats {
    uint64_t append_bytes = 0;
    uint64_t syncs = 0;
    /// Wall time of each Append call, in microseconds.
    std::vector<double> append_us;
  };

  StatusOr<std::unique_ptr<io::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      if (!truncate) return Status::NotFound("cannot open for write: " + path);
      it = files_.emplace(path, std::make_shared<std::string>()).first;
    } else if (truncate) {
      it->second->clear();
    }
    return std::unique_ptr<io::WritableFile>(
        std::make_unique<File>(this, it->second));
  }

  StatusOr<std::string> ReadFile(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("cannot open: " + path);
    return *it->second;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound("rename failed: " + from);
    std::shared_ptr<std::string> data = it->second;
    files_.erase(it);
    files_[to] = std::move(data);
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.erase(path) == 0) {
      return Status::NotFound("unlink failed: " + path);
    }
    return Status::OK();
  }

  StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (dirs_.count(dir) == 0) {
      return Status::NotFound("cannot list directory: " + dir);
    }
    const std::string prefix = dir + "/";
    std::vector<std::string> names;
    for (const auto& [path, data] : files_) {
      if (path.compare(0, prefix.size(), prefix) == 0 &&
          path.find('/', prefix.size()) == std::string::npos) {
        names.push_back(path.substr(prefix.size()));
      }
    }
    return names;
  }

  Status CreateDirIfMissing(const std::string& dir) override {
    std::lock_guard<std::mutex> lock(mu_);
    dirs_.insert(dir);
    return Status::OK();
  }

  Status SyncDir(const std::string&) override { return Status::OK(); }

  Status Truncate(const std::string& path, uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound("truncate failed: " + path);
    it->second->resize(size);
    return Status::OK();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  class File final : public io::WritableFile {
   public:
    File(MemEnv* env, std::shared_ptr<std::string> data)
        : env_(env), data_(std::move(data)) {}

    Status Append(const char* data, size_t size) override {
      const Clock::time_point start = Clock::now();
      std::lock_guard<std::mutex> lock(env_->mu_);
      data_->append(data, size);
      env_->stats_.append_bytes += size;
      const Clock::time_point end = Clock::now();
      env_->stats_.append_us.push_back(UsSince(start, end));
      env_->spans_->Record("wal.append", start, end, 0, 0);
      return Status::OK();
    }

    Status Sync() override {
      const Clock::time_point start = Clock::now();
      std::lock_guard<std::mutex> lock(env_->mu_);
      ++env_->stats_.syncs;
      env_->spans_->Record("wal.sync", start, Clock::now(), 0, 0);
      return Status::OK();
    }

    Status Close() override { return Status::OK(); }

   private:
    MemEnv* env_;
    std::shared_ptr<std::string> data_;
  };

  SpanLog* spans_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<std::string>> files_;
  std::set<std::string> dirs_;
  Stats stats_;
};

}  // namespace vz::perfbench

#endif  // VZ_PERFBENCH_MEM_ENV_H_
