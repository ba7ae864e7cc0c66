#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

extern char** environ;

namespace vz::perfbench {
namespace {

// Value of a "Key:   123 kB" line of a /proc status file; 0 when absent.
// The keys read here never sit on the first line ("Name:" does).
uint64_t StatusField(const std::string& text, const std::string& key) {
  const std::string needle = "\n" + key + ":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

ProcSample ReadProc(pid_t pid) {
  ProcSample sample;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string status = Slurp(base + "/status");
  const std::string stat = Slurp(base + "/stat");
  if (status.empty() || stat.empty()) return sample;
  sample.threads = StatusField(status, "Threads");
  sample.vm_hwm_kb = StatusField(status, "VmHWM");
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return sample;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  uint64_t utime = 0;
  uint64_t stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  sample.cpu_ticks = utime + stime;
  sample.ok = true;
  return sample;
}

SutProcess::~SutProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (to_child_ != nullptr) std::fclose(to_child_);
  if (from_child_ != nullptr) std::fclose(from_child_);
}

bool SutProcess::Start(const std::vector<std::string>& args) {
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) return false;
  self[n] = '\0';
  int to[2];
  int from[2];
  if (::pipe2(to, O_CLOEXEC) != 0) return false;
  if (::pipe2(from, O_CLOEXEC) != 0) {
    ::close(to[0]);
    ::close(to[1]);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, to[0], 0);
  posix_spawn_file_actions_adddup2(&actions, from[1], 1);
  std::vector<std::string> argv_storage = {self};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc =
      ::posix_spawn(&pid_, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(to[0]);
  ::close(from[1]);
  if (rc != 0) {
    pid_ = -1;
    ::close(to[1]);
    ::close(from[0]);
    return false;
  }
  to_child_ = ::fdopen(to[1], "w");
  from_child_ = ::fdopen(from[0], "r");
  return to_child_ != nullptr && from_child_ != nullptr;
}

std::string SutProcess::ReadLine() {
  if (from_child_ == nullptr) return "";
  std::string line;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), from_child_) != nullptr) {
    line += buffer;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      return line;
    }
  }
  return line;
}

uint64_t SutProcess::ContextSwitches() {
  if (to_child_ == nullptr) return 0;
  std::fputs("usage\n", to_child_);
  std::fflush(to_child_);
  const std::string line = ReadLine();
  if (line.compare(0, 6, "USAGE ") != 0) return 0;
  return std::strtoull(line.c_str() + 6, nullptr, 10);
}

SutProcess::Exit SutProcess::Stop() {
  Exit exit;
  if (pid_ <= 0) return exit;
  if (to_child_ != nullptr) {
    std::fputs("quit\n", to_child_);
    std::fflush(to_child_);
    std::fclose(to_child_);
    to_child_ = nullptr;
  }
  for (std::string line = ReadLine(); !line.empty(); line = ReadLine()) {
    if (line.compare(0, 6, "STATS ") == 0) exit.stats = line.substr(6);
  }
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  exit.clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return exit;
}

}  // namespace vz::perfbench
