// Tiny blocking HTTP/1.1 test client for exercising obs::HttpEndpoint.
// Sends one request, reads to EOF (the endpoint always closes), and splits
// the status line / headers / body apart. Used by tests and bench_load; no
// production use.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

namespace ullsnn::testutil {

struct HttpResult {
  bool ok = false;       // transport-level success (connect + full read)
  int status = 0;        // parsed from the status line
  std::string headers;   // raw header block
  std::string body;
};

/// One GET (or other method) against 127.0.0.1:port. Returns ok=false on any
/// socket failure so tests can ASSERT on it.
inline HttpResult http_request(int port, const std::string& target,
                               const std::string& method = "GET") {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return result;
  result.headers = raw.substr(0, header_end);
  result.body = raw.substr(header_end + 4);
  // "HTTP/1.1 200 OK"
  const std::size_t sp = result.headers.find(' ');
  if (sp == std::string::npos) return result;
  result.status = std::atoi(result.headers.c_str() + sp + 1);
  result.ok = true;
  return result;
}

}  // namespace ullsnn::testutil
