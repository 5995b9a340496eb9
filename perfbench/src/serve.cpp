// serve-socket: a net::Server over an R-MAT graph (scale 18, edge factor
// 8) in its default configuration -- 2 owned shards, one lane worker each
// -- with options.num_threads = 1 as ShardSet documents. No writes: the
// wire codec, the socket reader, the admission lanes and QueryEngine row
// reads do the work.
//
// Load: one seeded Poisson schedule at a fixed 20,000 req/s (80% single
// lookups, 20% out-of-sample queries with 16 neighbours, the bench_slo mix)
// replayed by ONE generator thread over one persistent connection, with at
// most kMaxInFlight requests in flight. The generator never blocks on send:
// it writes without blocking and reads replies on the same thread with
// ppoll. Latency runs from each request's send to its decoded reply.
//
// Check: a seeded sample of replies must be bitwise equal to Router::answer
// of an in-process tier built from the same inputs.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "shard/router.hpp"
#include "shard/shard_set.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace perfbench {
namespace {

using gee::graph::EdgeList;
using gee::graph::VertexId;
using gee::graph::Weight;
using gee::shard::Router;
using Request = Router::Request;

constexpr int kScale = 18;
constexpr int kEdgeFactor = 8;
constexpr double kRate = 20000;  ///< offered req/s
constexpr double kOosFraction = 0.2;
constexpr std::size_t kFanout = 16;
/// One reply in this many enters the parity sample.
constexpr std::uint64_t kSampleStride = 256;
/// The generator keeps at most this many requests in flight. At 20k req/s
/// and ~35 us per request about one is in flight, so the cap almost never
/// binds; it binds when the host stops this VM's CPUs for milliseconds
/// (see NOTES.md), and then bounds how many requests one stall can hold.
constexpr std::size_t kMaxInFlight = 4;
/// A generator with requests outstanding and no reply for this long ends
/// its pass; what is outstanding counts as unanswered.
constexpr double kNoProgressSeconds = 10;
/// Closer than this to the next due time, the generator spins instead of
/// sleeping in ppoll.
constexpr std::int64_t kSpinNs = 50'000;
/// Latency percentiles are taken per window of this many seconds of the
/// schedule and reported as the median over windows (see NOTES.md).
constexpr double kWindowSeconds = 0.5;
/// Requests timed one by one through Router::answer in the traced run.
constexpr std::size_t kAnswerSamples = 100'000;

struct Arrival {
  double at_s = 0;
  Request request;
};

std::vector<Arrival> draw_schedule(double rate, double seconds, VertexId n,
                                   std::uint64_t seed) {
  gee::util::Xoshiro256 rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.at_s = t;
    if (rng.next_bool(kOosFraction)) {
      a.request.kind = Request::Kind::kQuery;
      a.request.query.neighbors.reserve(kFanout);
      for (std::size_t j = 0; j < kFanout; ++j) {
        a.request.query.neighbors.emplace_back(
            static_cast<VertexId>(rng.next_below(n)),
            static_cast<Weight>(1 + rng.next_below(4)));
      }
    } else {
      a.request.kind = Request::Kind::kLookup;
      a.request.vertex = static_cast<VertexId>(rng.next_below(n));
    }
    schedule.push_back(std::move(a));
  }
  return schedule;
}

bool same_reply(const gee::serve::QueryReply& a, const gee::serve::QueryReply& b) {
  return a.row.size() == b.row.size() &&
         std::memcmp(a.row.data(), b.row.data(), a.row.size() * sizeof(a.row[0])) == 0 &&
         a.predicted == b.predicted && a.epoch == b.epoch && a.staleness == b.staleness;
}

/// A sleep that honours nanoseconds: the default 50 us timer slack would
/// make every wake-up late.
void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void sleep_until_ns(std::int64_t deadline_ns) {
  const timespec ts{static_cast<time_t>(deadline_ns / 1'000'000'000),
                    static_cast<long>(deadline_ns % 1'000'000'000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

// ------------------------------------------------------------ the client

struct SocketPass {
  std::vector<double> latency;  ///< ok replies: send -> decoded reply
  std::vector<std::uint32_t> window;  ///< each latency's window of due time
  std::vector<double> from_due;  ///< ok replies: due -> decoded reply
  std::vector<double> late;     ///< send - due, every request
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t unanswered = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<std::size_t, gee::serve::QueryReply>> sample;
  Usage before;
  Usage after;
};

/// One nonblocking connection: frames out through a user-space buffer,
/// replies in through another. Never blocks in send.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(gee::net::connect_unix(path)) {
    const int flags = fcntl(fd_.get(), F_GETFL, 0);
    fcntl(fd_.get(), F_SETFL, flags | O_NONBLOCK);
    in_.resize(1 << 20);
  }

  void queue(const gee::net::Buffer& frame) {
    out_.insert(out_.end(), frame.begin(), frame.end());
  }
  [[nodiscard]] bool pending_out() const { return out_off_ < out_.size(); }

  /// Write what the socket takes now. False when the connection is gone.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t k = ::send(fd_.get(), out_.data() + out_off_, out_.size() - out_off_,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (k > 0) {
        out_off_ += static_cast<std::size_t>(k);
      } else if (k < 0 && errno == EINTR) {
        continue;
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    } else if (out_off_ > (1u << 20)) {
      out_.erase(out_.begin(), out_.begin() + static_cast<long>(out_off_));
      out_off_ = 0;
    }
    return true;
  }

  /// Read what has arrived and hand each complete reply to `on_reply`.
  /// False when the connection is gone or a frame does not decode.
  template <class OnReply>
  bool receive(OnReply&& on_reply) {
    for (;;) {
      if (in_.size() - in_len_ < (64u << 10)) in_.resize(in_.size() * 2);
      const ssize_t k = ::recv(fd_.get(), in_.data() + in_len_, in_.size() - in_len_,
                               MSG_DONTWAIT);
      if (k > 0) {
        in_len_ += static_cast<std::size_t>(k);
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or error
    }
    std::size_t pos = 0;
    try {
      while (in_len_ - pos >= gee::net::kHeaderBytes) {
        const auto header =
            gee::net::decode_header({in_.data() + pos, gee::net::kHeaderBytes});
        const std::size_t frame = gee::net::kHeaderBytes + header.payload_len;
        if (in_len_ - pos < frame) break;
        on_reply(header, std::span<const std::uint8_t>(
                             in_.data() + pos + gee::net::kHeaderBytes, header.payload_len));
        pos += frame;
      }
    } catch (const gee::net::WireError&) {
      return false;
    }
    if (pos > 0) {
      std::memmove(in_.data(), in_.data() + pos, in_len_ - pos);
      in_len_ -= pos;
    }
    return true;
  }

  /// Sleep until the socket is readable (or writable while output is
  /// pending), or `timeout_ns` passes.
  void wait(std::int64_t timeout_ns) const {
    pollfd p{fd_.get(), static_cast<short>(POLLIN | (pending_out() ? POLLOUT : 0)), 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    (void)ppoll(&p, 1, &ts, nullptr);
  }

 private:
  gee::net::Fd fd_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_len_ = 0;
};

/// Replay `schedule` open loop over `conn`, request i due at start_ns +
/// its offset. Request ids are id_base + i + 1.
SocketPass drive_socket(Run& run, Watchdog& dog, Connection& conn,
                        const std::vector<Arrival>& schedule,
                        const std::vector<char>& sampled, std::int64_t start_ns,
                        std::uint64_t id_base, SpanLog* log) {
  const std::size_t n = schedule.size();
  SocketPass pass;
  pass.latency.reserve(n);
  pass.late.reserve(n);
  std::vector<std::int64_t> due(n);
  std::vector<std::int64_t> sent(n, 0);
  std::vector<char> done(n, 0);
  std::vector<std::int32_t> span_of(log != nullptr ? n : 0, -1);
  pass.before = usage_now();
  pass.start_ns = start_ns;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = pass.start_ns + static_cast<std::int64_t>(schedule[i].at_s * 1e9);
  }
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::int64_t last_progress = pass.start_ns;
  bool lost = false;

  const auto on_reply = [&](const gee::net::FrameHeader& header,
                            std::span<const std::uint8_t> payload) {
    const std::int64_t d0 = now_ns();
    const auto reply = gee::net::decode_reply(header, payload);
    const std::int64_t d1 = now_ns();
    const std::uint64_t id = reply.request_id;
    if (id <= id_base || id > id_base + n || done[id - id_base - 1]) {
      ++pass.errors;  // a reply to nothing we asked, or a second reply
      return;
    }
    const std::size_t i = id - id_base - 1;
    done[i] = 1;
    --outstanding;
    last_progress = d1;
    dog.beat();
    switch (reply.opcode) {
      case gee::net::Opcode::kReply:
        ++pass.ok;
        pass.latency.push_back(seconds_between(sent[i], d1));
        pass.from_due.push_back(seconds_between(due[i], d1));
        pass.window.push_back(static_cast<std::uint32_t>(schedule[i].at_s / kWindowSeconds));
        if (sampled[i]) pass.sample.emplace_back(i, reply.reply);
        break;
      case gee::net::Opcode::kShed:
        ++pass.shed;
        break;
      default:
        ++pass.errors;
        break;
    }
    if (log != nullptr) {
      log->add("net.decode", d0, d1, span_of[i], id);
      log->set_end(span_of[i], d1);
    }
  };

  while (!lost) {
    std::int64_t now = now_ns();
    while (next < n && due[next] <= now && outstanding < kMaxInFlight) {
      const std::uint64_t id = id_base + next + 1;
      const std::int64_t e0 = now_ns();
      const auto frame = gee::net::encode_request(schedule[next].request, id);
      const std::int64_t e1 = now_ns();
      conn.queue(frame);
      sent[next] = e0;
      pass.late.push_back(seconds_between(due[next], e0));
      if (log != nullptr) {
        span_of[next] = log->add("net.request", e0, e1, -1, id);
        log->add("net.encode", e0, e1, span_of[next], id);
      }
      run.tally.attempted.fetch_add(1);
      ++next;
      ++outstanding;
      now = e1;
    }
    if (!conn.flush() || !conn.receive(on_reply)) {
      lost = true;
      break;
    }
    now = now_ns();
    if (next == n && outstanding == 0) break;
    if (outstanding > 0 && now - last_progress > static_cast<std::int64_t>(kNoProgressSeconds * 1e9)) {
      run.note("generator: no reply for " + std::to_string(kNoProgressSeconds) +
               " s; ending the pass");
      break;
    }
    if (outstanding == 0) last_progress = now;
    const std::int64_t until = next < n ? due[next] - now : 5'000'000;
    if (until > kSpinNs) {
      conn.wait(std::min<std::int64_t>(until - kSpinNs, 5'000'000));
    } else {
      sched_yield();  // spinning: let a server thread on this CPU run
    }
  }
  pass.end_ns = now_ns();
  pass.after = usage_now();
  if (lost) run.note("generator: connection lost");
  // Everything not answered is a failure, including requests that were
  // due but never sent because the connection went away.
  for (std::size_t i = next; i < n; ++i) run.tally.attempted.fetch_add(1);
  pass.unanswered = outstanding + (n - next);
  run.tally.ok.fetch_add(pass.ok);
  run.tally.shed.fetch_add(pass.shed);
  run.tally.errors.fetch_add(pass.errors);
  run.tally.timed_out.fetch_add(pass.unanswered);
  return pass;
}

/// The in-process twin: the server's tier, built the same way.
struct Tier {
  Tier(const GraphInputs& in, const gee::net::Server::Config& config)
      : set(in.edges, in.labels, config.shards, config.mode, config.options),
        router(set, config.router) {}
  gee::shard::ShardSet set;
  Router router;
};

}  // namespace

void run_serve_socket(Run& run, Watchdog& dog) {
  const auto& cfg = run.config;
  tighten_timer_slack();
  const GraphInputs in = make_graph(kScale, kEdgeFactor, cfg.seed);
  const VertexId n = in.edges.num_vertices();
  const auto schedule = draw_schedule(kRate, cfg.seconds, n, sub_seed(cfg.seed, Stream::kRequests));
  std::vector<char> sampled(schedule.size(), 0);
  {
    gee::util::Xoshiro256 rng(sub_seed(cfg.seed, Stream::kSample));
    for (auto& s : sampled) s = rng.next_below(kSampleStride) == 0 ? 1 : 0;
  }
  dog.beat();

  gee::net::Server::Config config;
  config.options.num_threads = 1;
  const std::string path =
      cfg.work_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  // Set-up: server construction plus connect, timed kSetupRepeats times;
  // the last server and connection are kept.
  std::unique_ptr<gee::net::Server> server;
  std::unique_ptr<Connection> conn;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    conn.reset();
    server.reset();
    const std::int64_t t0 = now_ns();
    auto s = std::make_unique<gee::net::Server>(path, gee::net::GraphSource{in.edges, in.labels},
                                                config);
    auto c = std::make_unique<Connection>(path);
    setups.push_back(seconds_between(t0, now_ns()));
    server = std::move(s);
    conn = std::move(c);
    dog.beat();
  }
  run.set("setup_s", median(setups));

  // The untraced pass, then (traced run) the same schedule again with spans.
  SpanLog log;
  const SocketPass plain = drive_socket(run, dog, *conn, schedule, sampled,
                                        now_ns() + 10'000'000, 0, nullptr);
  SocketPass traced;
  if (cfg.trace) {
    log.reserve(schedule.size() * 3);
    traced = drive_socket(run, dog, *conn, schedule, sampled, now_ns() + 10'000'000,
                          schedule.size(), &log);
  }
  dog.beat();

  run.note_distribution("request latency (send -> decoded reply)", plain.latency);
  run.note_distribution("request latency (due -> decoded reply)", plain.from_due);
  run.note_distribution("generator lateness (due -> send)", plain.late);
  const double window = seconds_between(plain.start_ns, plain.end_ns);
  std::vector<double> p90_windows;
  run.set("p50_s", windowed_quantile(plain.latency, plain.window, 0.5));
  run.set("p90_s", windowed_quantile(plain.latency, plain.window, 0.9, &p90_windows));
  {
    std::string line = "p90 per window (us):";
    char buf[32];
    for (const double v : p90_windows) {
      std::snprintf(buf, sizeof buf, " %.0f", v * 1e6);
      line += buf;
    }
    run.note(line);
  }
  run.set("work_per_s", static_cast<double>(plain.ok) / window);
  run.note("work_per_s = ok replies per second of the load window; offered " +
           std::to_string(static_cast<long long>(kRate)) + " req/s, " +
           std::to_string(schedule.size()) + " requests, shed " +
           std::to_string(plain.shed) + ", errors " + std::to_string(plain.errors) +
           ", unanswered " + std::to_string(plain.unanswered));
  conn.reset();
  server.reset();
  dog.beat();

  // The twin tier: same inputs, same configuration.
  const std::int64_t b0 = now_ns();
  Tier twin(in, config);
  const double twin_build_s = seconds_between(b0, now_ns());
  dog.beat();
  std::size_t mismatches = 0;
  std::size_t compared = 0;
  const SocketPass* passes[] = {&plain, &traced};
  for (const SocketPass* pass : passes) {
    for (const auto& [i, reply] : pass->sample) {
      ++compared;
      if (!same_reply(reply, twin.router.answer(schedule[i].request).reply)) ++mismatches;
    }
  }
  run.note("parity sample: " + std::to_string(compared) +
           " replies vs in-process Router::answer, " + std::to_string(mismatches) +
           " mismatches");
  if (mismatches > 0) {
    run.correct = false;
    run.tally.fail_checked(mismatches);
  }
  run.set("peak_rss_mb", usage_now().max_rss_mib);
  run.set("ok_share", run.tally.ok_share());
  if (!cfg.trace) return;

  // ---- traced run, part 2: the request path in-process, on the twin.
  // (a) Router::answer and the owning engine's call, one request at a time.
  const std::size_t answers = std::min(kAnswerSamples, schedule.size());
  std::vector<double> answer_s(answers);
  std::vector<double> lookup_s;
  std::vector<double> query_s;
  for (std::size_t i = 0; i < answers; ++i) {
    const auto& req = schedule[i].request;
    const std::uint64_t id = 2 * schedule.size() + i + 1;
    const std::int64_t t0 = now_ns();
    const auto resp = twin.router.answer(req);
    const std::int64_t t1 = now_ns();
    const std::int32_t op = log.add("op", t0, t1, -1, id);
    log.add("shard.answer", t0, t1, op, id);
    answer_s[i] = seconds_between(t0, t1);
    const std::int64_t u0 = now_ns();
    if (req.kind == Request::Kind::kLookup) {
      const int s = twin.set.map().shard_of(req.vertex);
      (void)twin.set.engine(s).lookup(req.vertex);
      const std::int64_t u1 = now_ns();
      log.add("serve.lookup", u0, u1, op, id);
      log.set_end(op, u1);
      lookup_s.push_back(seconds_between(u0, u1));
    } else {
      (void)twin.set.engine(0).query(req.query);
      const std::int64_t u1 = now_ns();
      log.add("serve.query", u0, u1, op, id);
      log.set_end(op, u1);
      query_s.push_back(seconds_between(u0, u1));
    }
    if (i % 4096 == 0) dog.beat();
  }

  // (b) The same schedule through Router::submit, open loop: submit ->
  // callback.
  std::vector<std::int64_t> submitted(schedule.size(), 0);
  std::vector<std::int64_t> completed(schedule.size(), 0);
  std::uint64_t in_process_shed = 0;
  {
    const std::int64_t start = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const std::int64_t due = start + static_cast<std::int64_t>(schedule[i].at_s * 1e9);
      std::int64_t now = now_ns();
      if (due - now > kSpinNs) sleep_until_ns(due - kSpinNs);
      while (now_ns() < due) {
      }
      submitted[i] = now_ns();
      std::int64_t* slot = &completed[i];
      const auto ticket = twin.router.submit(
          schedule[i].request, [slot](Router::Response) { *slot = now_ns(); });
      if (!ticket.admitted) ++in_process_shed;
      if (i % 4096 == 0) dog.beat();
    }
    twin.router.drain();
  }
  std::vector<double> in_process;
  std::vector<double> queue_wait;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (completed[i] == 0) continue;
    in_process.push_back(seconds_between(submitted[i], completed[i]));
    if (i < answers) queue_wait.push_back(seconds_between(submitted[i], completed[i]) - answer_s[i]);
  }
  run.note_distribution("in-process submit -> callback", in_process);

  const double socket_p50 = median(plain.latency);
  const double traced_p50 = median(traced.latency);
  const double lookup = median(lookup_s);
  const double query = median(query_s);
  const double answer = median(answer_s);
  const double wait = median(queue_wait);
  const double boundary = socket_p50 - median(in_process);
  run.set("shard.build_s", twin_build_s);
  run.set("serve.lookup_s", lookup);
  run.set("serve.query_s", query);
  run.set("shard.answer_s", answer);
  run.set("shard.queue_wait_s", wait);
  run.set("shard.shed", static_cast<double>(in_process_shed));
  run.set("net.encode_s", median(log.durations("net.encode")));
  run.set("net.decode_s", median(log.durations("net.decode")));
  run.set("net.boundary_s", boundary);
  // serve.* run inside shard.answer, so the request's parts are answer,
  // queue wait and the boundary.
  const double parts = answer + wait + boundary;
  run.set("net.parts_gap_pct", 100.0 * (socket_p50 - parts) / socket_p50);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "request parts: serve (lookup %.3g / query %.3g) inside answer %.3g + "
                "queue wait %.3g + boundary %.3g = %.3g vs socket p50 %.3g s",
                lookup, query, answer, wait, boundary, parts, socket_p50);
  run.note(buf);
  run.set("net.shed", static_cast<double>(traced.shed));
  run.set("net.errors", static_cast<double>(traced.errors));
  run.set("net.unanswered", static_cast<double>(traced.unanswered));
  run.set("proc.cpu_s", traced.after.cpu_s - traced.before.cpu_s);
  run.set("proc.minflt", traced.after.minflt - traced.before.minflt);
  run.set("gen.late_p99_s", quantile(traced.late, 0.99));
  run.set("trace.overhead_pct", 100.0 * (traced_p50 - socket_p50) / socket_p50);
  write_trace_file(cfg.work_dir + "/trace-serve-socket.json", log, 200000);
}

}  // namespace perfbench
