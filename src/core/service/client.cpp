#include "core/service/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/fingerprint.hpp"

namespace nk::service {

namespace {

[[noreturn]] void transport_error(const std::string& what) {
  throw std::runtime_error("nk_client: " + what);
}

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace

Client::Client(const std::string& socket_path) : in_(-1) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path))
    transport_error("socket path empty or too long: '" + socket_path + "'");
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) transport_error(std::string("socket(): ") + strerror(errno));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = strerror(errno);
    ::close(fd_);
    fd_ = -1;
    transport_error("connect('" + socket_path + "'): " + why);
  }
  in_ = BufferedReader(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::read_reply() {
  std::string line;
  if (!in_.read_line(line)) transport_error("connection closed mid-reply");
  if (line.rfind("ERR ", 0) == 0) {
    const std::string rest = line.substr(4);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) throw ProtocolError(rest, "");
    throw ProtocolError(rest.substr(0, sp), rest.substr(sp + 1));
  }
  return line;
}

std::string Client::hello() {
  if (!write_line(fd_, "HELLO")) transport_error("write failed");
  const std::string line = read_reply();
  if (line.rfind("OK ", 0) != 0) transport_error("unexpected HELLO reply '" + line + "'");
  return line.substr(3);
}

Client::Handle Client::parse_handle_reply(const std::string& line) {
  const std::vector<std::string> f = split_ws(line);
  if (f.size() != 5 || f[0] != "HANDLE" || (f[4] != "CACHED" && f[4] != "NEW"))
    transport_error("malformed HANDLE reply '" + line + "'");
  Handle h;
  if (!parse_fingerprint_hex(f[1], h.handle))
    transport_error("malformed handle in reply '" + line + "'");
  h.n = parse_i64_field(f[2], "reply n", 0, kMaxN);
  h.nnz = parse_i64_field(f[3], "reply nnz", 0, kMaxNnz);
  h.cached = f[4] == "CACHED";
  return h;
}

Client::Handle Client::put_matrix(const CsrMatrix<double>& a, bool symmetric) {
  Request r;
  r.verb = Request::Verb::kPut;
  r.n = a.nrows;
  r.nnz = a.nnz();
  r.symmetric = symmetric;
  if (!write_line(fd_, format_request_line(r)) ||
      !write_all(fd_, a.row_ptr.data(), a.row_ptr.size() * sizeof(index_t)) ||
      !write_all(fd_, a.col_idx.data(), a.col_idx.size() * sizeof(index_t)) ||
      !write_all(fd_, a.vals.data(), a.vals.size() * sizeof(double)))
    transport_error("write failed");
  return parse_handle_reply(read_reply());
}

Client::Handle Client::put_standin(const std::string& name, int scale) {
  Request r;
  r.verb = Request::Verb::kPutGen;
  r.standin = name;
  r.scale = scale;
  if (!write_line(fd_, format_request_line(r))) transport_error("write failed");
  return parse_handle_reply(read_reply());
}

Client::SolveReply Client::solve(std::uint64_t handle, const std::string& spec,
                                 std::span<const double> B, int k, std::int64_t n) {
  if (k <= 0 || n <= 0 || B.size() != static_cast<std::size_t>(k) * static_cast<std::size_t>(n))
    transport_error("solve(): B size does not match k*n");
  Request r;
  r.verb = Request::Verb::kSolve;
  r.handle = handle;
  r.k = k;
  r.n = n;
  r.spec = spec;
  if (!write_line(fd_, format_request_line(r)) ||
      !write_all(fd_, B.data(), B.size() * sizeof(double)))
    transport_error("write failed");

  const std::string head = read_reply();
  const std::vector<std::string> f = split_ws(head);
  if (f.size() != 3 || f[0] != "RESULT") transport_error("malformed RESULT reply '" + head + "'");
  const auto rk = parse_i64_field(f[1], "reply k", 1, kMaxK);
  const auto rn = parse_i64_field(f[2], "reply n", 1, kMaxN);
  if (rk != k || rn != n) transport_error("RESULT dimensions disagree with request");

  SolveReply reply;
  reply.n = rn;
  reply.columns.reserve(static_cast<std::size_t>(rk));
  for (std::int64_t c = 0; c < rk; ++c) {
    std::string line;
    if (!in_.read_line(line)) transport_error("connection closed mid-reply");
    reply.columns.push_back(parse_col_line(line));
  }
  reply.x.resize(static_cast<std::size_t>(rk) * static_cast<std::size_t>(rn));
  if (!in_.read_exact(reply.x.data(), reply.x.size() * sizeof(double)))
    transport_error("connection closed mid-payload");
  return reply;
}

std::map<std::string, std::uint64_t> Client::stats() {
  if (!write_line(fd_, "STATS")) transport_error("write failed");
  const std::string line = read_reply();
  if (line.rfind("STATS", 0) != 0) transport_error("unexpected STATS reply '" + line + "'");
  std::map<std::string, std::uint64_t> out;
  for (const std::string& tok : split_ws(line.substr(5))) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) continue;
    out[tok.substr(0, eq)] = static_cast<std::uint64_t>(parse_i64_field(
        tok.substr(eq + 1), "stats value", 0, std::numeric_limits<std::int64_t>::max()));
  }
  return out;
}

void Client::free_handle(std::uint64_t handle) {
  Request r;
  r.verb = Request::Verb::kFree;
  r.handle = handle;
  if (!write_line(fd_, format_request_line(r))) transport_error("write failed");
  const std::string line = read_reply();
  if (line != "OK") transport_error("unexpected FREE reply '" + line + "'");
}

void Client::shutdown_server() {
  if (!write_line(fd_, "SHUTDOWN")) transport_error("write failed");
  const std::string line = read_reply();
  if (line != "OK") transport_error("unexpected SHUTDOWN reply '" + line + "'");
}

std::string Client::request_raw(const std::string& line) {
  if (!write_line(fd_, line)) transport_error("write failed");
  std::string reply;
  if (!in_.read_line(reply)) transport_error("connection closed mid-reply");
  return reply;
}

}  // namespace nk::service
