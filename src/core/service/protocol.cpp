#include "core/service/protocol.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "core/fingerprint.hpp"

namespace nk::service {

namespace {

/// Split on single spaces.  Leading/trailing/doubled spaces produce empty
/// tokens, which the field-count checks below then reject — "SOLVE  ab 1"
/// is malformed, not forgiven.
std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t sp = line.find(' ', start);
    if (sp == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, sp - start));
    start = sp + 1;
  }
}

[[noreturn]] void bad(const std::string& message) {
  throw ProtocolError("bad-request", message);
}

void expect_fields(const std::vector<std::string>& f, std::size_t want, const char* verb) {
  if (f.size() != want)
    bad(std::string(verb) + ": expected " + std::to_string(want - 1) + " argument(s), got " +
        std::to_string(f.size() - 1));
}

double parse_f64_field(const std::string& tok, const char* what) {
  if (tok.empty()) bad(std::string(what) + ": empty field");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0')
    bad(std::string(what) + ": malformed number '" + tok + "'");
  if (errno == ERANGE) bad(std::string(what) + ": out of range '" + tok + "'");
  return v;
}

std::uint64_t parse_handle_field(const std::string& tok) {
  std::uint64_t h = 0;
  if (!parse_fingerprint_hex(tok, h)) bad("handle: malformed hex '" + tok + "'");
  return h;
}

/// Token sanity for free-text fields that must survive the one-line
/// space-separated framing (stand-in names, spec strings, failure sites).
void expect_token(const std::string& tok, const char* what) {
  if (tok.empty()) bad(std::string(what) + ": empty field");
  for (const char c : tok)
    if (c == ' ' || c == '\n' || c == '\r')
      bad(std::string(what) + ": whitespace in '" + tok + "'");
}

}  // namespace

std::int64_t parse_i64_field(std::string_view tok, const char* what, std::int64_t min,
                             std::int64_t max) {
  if (tok.empty()) bad(std::string(what) + ": empty field");
  const std::string s(tok);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') bad(std::string(what) + ": malformed integer '" + s + "'");
  if (errno == ERANGE || v < min || v > max)
    bad(std::string(what) + ": value '" + s + "' outside [" + std::to_string(min) + ", " +
        std::to_string(max) + "]");
  return v;
}

Request parse_request_line(const std::string& line) {
  if (line.empty()) bad("empty request line");
  if (line.size() > 4096) bad("request line too long");
  const std::vector<std::string> f = split_fields(line);
  Request r;
  const std::string& verb = f[0];
  if (verb == "HELLO") {
    expect_fields(f, 1, "HELLO");
    r.verb = Request::Verb::kHello;
  } else if (verb == "PUTGEN") {
    expect_fields(f, 3, "PUTGEN");
    r.verb = Request::Verb::kPutGen;
    expect_token(f[1], "standin");
    r.standin = f[1];
    r.scale = static_cast<int>(parse_i64_field(f[2], "scale", 1, 64));
  } else if (verb == "PUT") {
    expect_fields(f, 4, "PUT");
    r.verb = Request::Verb::kPut;
    r.n = parse_i64_field(f[1], "n", 1, kMaxN);
    r.nnz = parse_i64_field(f[2], "nnz", 0, kMaxNnz);
    r.symmetric = parse_i64_field(f[3], "sym", 0, 1) != 0;
  } else if (verb == "SOLVE") {
    expect_fields(f, 5, "SOLVE");
    r.verb = Request::Verb::kSolve;
    r.handle = parse_handle_field(f[1]);
    r.k = static_cast<int>(parse_i64_field(f[2], "k", 1, kMaxK));
    r.n = parse_i64_field(f[3], "n", 1, kMaxN);
    expect_token(f[4], "spec");
    r.spec = f[4];
  } else if (verb == "STATS") {
    expect_fields(f, 1, "STATS");
    r.verb = Request::Verb::kStats;
  } else if (verb == "FREE") {
    expect_fields(f, 2, "FREE");
    r.verb = Request::Verb::kFree;
    r.handle = parse_handle_field(f[1]);
  } else if (verb == "SHUTDOWN") {
    expect_fields(f, 1, "SHUTDOWN");
    r.verb = Request::Verb::kShutdown;
  } else {
    bad("unknown verb '" + verb + "'");
  }
  return r;
}

std::string format_request_line(const Request& r) {
  switch (r.verb) {
    case Request::Verb::kHello:
      return "HELLO";
    case Request::Verb::kPutGen:
      return "PUTGEN " + r.standin + " " + std::to_string(r.scale);
    case Request::Verb::kPut:
      return "PUT " + std::to_string(r.n) + " " + std::to_string(r.nnz) + " " +
             (r.symmetric ? "1" : "0");
    case Request::Verb::kSolve:
      return "SOLVE " + fingerprint_hex(r.handle) + " " + std::to_string(r.k) + " " +
             std::to_string(r.n) + " " + r.spec;
    case Request::Verb::kStats:
      return "STATS";
    case Request::Verb::kFree:
      return "FREE " + fingerprint_hex(r.handle);
    case Request::Verb::kShutdown:
      return "SHUTDOWN";
  }
  return {};  // unreachable
}

std::string format_col_line(int c, const SolveResult& r) {
  std::ostringstream os;
  os << "COL " << c << ' ' << status_name(r.status) << ' ' << r.iterations << ' ';
  os.precision(17);
  os << r.final_relres << ' ' << (r.failure.empty() ? "-" : r.failure);
  return os.str();
}

WireColumn parse_col_line(const std::string& line) {
  const std::vector<std::string> f = split_fields(line);
  if (f.size() != 6 || f[0] != "COL") bad("malformed COL line '" + line + "'");
  WireColumn c;
  c.col = static_cast<int>(parse_i64_field(f[1], "col", 0, kMaxK - 1));
  expect_token(f[2], "status");
  c.status = f[2];
  c.iterations = static_cast<int>(parse_i64_field(f[3], "iters", 0, 1 << 30));
  c.relres = parse_f64_field(f[4], "relres");
  expect_token(f[5], "site");
  c.failure = (f[5] == "-") ? std::string() : f[5];
  return c;
}

}  // namespace nk::service
