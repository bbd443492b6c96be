#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/status.h"

namespace coc {
namespace {

/// Longest request line a connection may send. A client that exceeds it
/// gets one usage_error status line and the connection closes, so a peer
/// that never sends a newline cannot grow a worker's buffer without bound.
/// An evaluate line is a few hundred bytes; a batch line carries a whole
/// scenario file, several thousand scenarios fit under the cap.
constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Writes the whole buffer, tolerating partial writes and EINTR. A peer
/// that hung up (EPIPE/ECONNRESET) is not an error worth tearing the
/// server for — the response is simply dropped. MSG_NOSIGNAL keeps a dead
/// peer from raising SIGPIPE.
void WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void WriteStatusLine(int fd, StatusCode code, const std::string& message) {
  WriteAll(fd, JsonLine(JsonStatusMessage(code, message)));
}

/// The one signal-routing slot InstallDrainSignalHandlers targets: the
/// handler may only touch async-signal-safe state, so it write()s a byte
/// to the registered server's stop pipe and nothing else.
std::atomic<int> g_drain_pipe_fd{-1};

extern "C" void DrainSignalHandler(int) {
  const int fd = g_drain_pipe_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(fd, &byte, 1);
  }
}

}  // namespace

EvalServer::EvalServer(ServerOptions opts)
    : opts_(std::move(opts)),
      handler_(opts_.engine, opts_.cache_entries, opts_.faults) {}

EvalServer::~EvalServer() {
  if (started_ && !joined_) {
    Stop();
    Wait();
  }
}

void EvalServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw UsageError(std::string("serve: socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(opts_.port));
  if (inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError("serve: bad host '" + opts_.host +
                     "' (an IPv4 address, e.g. 127.0.0.1)");
  }
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    const std::string reason = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError("serve: cannot bind " + opts_.host + ":" +
                     std::to_string(opts_.port) + ": " + reason);
  }
  if (listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError("serve: listen: " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));

  if (pipe(stop_pipe_) != 0) {
    const std::string reason = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError("serve: pipe: " + reason);
  }

  int threads = opts_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  active_fds_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    active_fds_.push_back(std::make_unique<std::atomic<int>>(-1));
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers_.emplace_back(
        [this, t] { WorkerLoop(static_cast<std::size_t>(t)); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
}

void EvalServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int n = poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || draining_.load()) {
      // A stop-pipe byte may come straight from the signal handler, which
      // could not touch any non-async-signal-safe drain state itself — run
      // the full drain here (idempotent when Stop() already did).
      Stop();
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    handler_.CountConnection();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (!draining_.load() && pending_.size() < opts_.max_queue) {
        pending_.push_back(fd);
        queue_cv_.notify_one();
        continue;
      }
    }
    // Admission control: shed with one structured line instead of letting
    // the client block behind a full queue.
    handler_.CountShed();
    WriteStatusLine(fd, StatusCode::kOverloaded,
                    "server overloaded: pending queue full (max_queue=" +
                        std::to_string(opts_.max_queue) + ")");
    close(fd);
  }
}

void EvalServer::WorkerLoop(std::size_t slot) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(
          lock, [&] { return !pending_.empty() || draining_.load(); });
      if (pending_.empty()) return;  // draining and nothing queued
      fd = pending_.front();
      pending_.pop_front();
    }
    if (draining_.load()) {
      // Queued but never started: answer structurally so the client is not
      // left waiting on a connection nobody will read.
      handler_.CountShed();
      WriteStatusLine(fd, StatusCode::kOverloaded,
                      "server draining: request not admitted");
      close(fd);
      continue;
    }
    if (opts_.on_dispatch_for_test) opts_.on_dispatch_for_test();
    ServeConnection(fd, slot);
  }
}

void EvalServer::ServeConnection(int fd, std::size_t slot) {
  active_fds_[slot]->store(fd);
  std::string buffer;  // unconsumed bytes: at most one partial line
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: the client is done
    // Bytes before `scan` are already known to hold no newline, so each
    // byte is searched once however many recv calls a line spans.
    std::size_t scan = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    while (open) {
      const std::size_t eol = buffer.find('\n', scan);
      const std::size_t end = eol == std::string::npos ? buffer.size() : eol;
      if (end - begin > kMaxRequestLineBytes) {
        handler_.CountProtocolError();
        WriteStatusLine(fd, StatusCode::kUsageError,
                        "request line exceeds " +
                            std::to_string(kMaxRequestLineBytes) +
                            " bytes; closing the connection");
        open = false;
        break;
      }
      if (eol == std::string::npos) break;
      const std::string line = buffer.substr(begin, eol - begin);
      begin = scan = eol + 1;
      if (line.empty()) continue;
      bool shutdown_requested = false;
      const std::string response =
          handler_.HandleLine(line, &shutdown_requested);
      WriteAll(fd, response);
      if (shutdown_requested) Stop();
      if (draining_.load()) {
        // Finish-in-flight means exactly the requests already received:
        // the response above was written; further lines belong to the next
        // server instance.
        open = false;
      }
    }
    buffer.erase(0, begin);
  }
  active_fds_[slot]->store(-1);
  close(fd);
}

void EvalServer::Stop() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  // Wake the acceptor.
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = write(stop_pipe_[1], &byte, 1);
  }
  // Wake idle workers so they observe the drain.
  queue_cv_.notify_all();
  // Unblock workers parked in recv() on idle keep-alive connections.
  // SHUT_RD only: an in-flight response can still be written.
  for (const auto& active : active_fds_) {
    const int fd = active->load();
    if (fd >= 0) shutdown(fd, SHUT_RD);
  }
}

int EvalServer::Wait() {
  if (!started_ || joined_) return 0;
  acceptor_.join();
  // The acceptor is gone; queued connections drain via the workers'
  // draining path. Nudge any worker still parked on an empty queue.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (stop_pipe_[0] >= 0) close(stop_pipe_[0]);
  if (stop_pipe_[1] >= 0) close(stop_pipe_[1]);
  listen_fd_ = stop_pipe_[0] = stop_pipe_[1] = -1;
  joined_ = true;
  return 0;
}

std::size_t EvalServer::PendingForTest() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return pending_.size();
}

void InstallDrainSignalHandlers(EvalServer& server) {
  // The server object must outlive any signal: the handler only touches
  // the pipe fd published here, never the server itself.
  g_drain_pipe_fd.store(server.DrainPipeWriteFdForSignals());
  struct sigaction action{};
  action.sa_handler = DrainSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked accepts/polls must wake
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

std::string SubmitLine(const std::string& host, int port,
                       const std::string& line) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw UsageError(std::string("submit: socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    throw UsageError("submit: bad host '" + host +
                     "' (an IPv4 address, e.g. 127.0.0.1)");
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = std::strerror(errno);
    close(fd);
    throw std::runtime_error("submit: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + reason);
  }
  WriteAll(fd, line);
  shutdown(fd, SHUT_WR);  // one-shot client: no more requests coming
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    const auto eol = response.find('\n');
    if (eol != std::string::npos) {
      response.resize(eol);
      close(fd);
      return response;
    }
  }
  close(fd);
  throw std::runtime_error("submit: server closed the connection without a "
                           "response (draining?)");
}

}  // namespace coc
