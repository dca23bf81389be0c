#include "repl/config.hpp"

namespace elect::repl {

std::optional<endpoint> parse_endpoint(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return std::nullopt;
  }
  endpoint ep;
  ep.host = s.substr(0, colon);
  unsigned long port = 0;
  for (std::size_t i = colon + 1; i < s.size(); ++i) {
    const char c = s[i];
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  if (port == 0) return std::nullopt;
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::optional<std::vector<endpoint>> parse_endpoints(const std::string& s) {
  std::vector<endpoint> out;
  std::size_t start = 0;
  while (start < s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const auto ep = parse_endpoint(s.substr(start, end - start));
    if (!ep.has_value()) return std::nullopt;
    out.push_back(*ep);
    start = end + 1;
  }
  return out;
}

std::optional<std::string> cluster_config::validate() const {
  if (members.empty()) return "cluster_config.members is empty";
  // A member listed twice would count its own vote and ack twice.
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (members[i].to_string() == members[j].to_string()) {
        return "cluster_config.members lists " + members[i].to_string() +
               " twice";
      }
    }
  }
  if (self < 0 || self >= static_cast<int>(members.size())) {
    return "cluster_config.self=" + std::to_string(self) +
           " is not an index into the " + std::to_string(members.size()) +
           "-member list";
  }
  if (fence_bump == 0) return "cluster_config.fence_bump must be >= 1";
  if (heartbeat_ms == 0) return "cluster_config.heartbeat_ms must be >= 1";
  if (election_timeout_min_ms == 0 ||
      election_timeout_max_ms < election_timeout_min_ms) {
    return "cluster_config election timeout range is empty (min " +
           std::to_string(election_timeout_min_ms) + ", max " +
           std::to_string(election_timeout_max_ms) + ")";
  }
  if (election_timeout_min_ms <= heartbeat_ms * 2) {
    return "cluster_config.election_timeout_min_ms must exceed twice the "
           "heartbeat interval, or healthy primaries get deposed on every "
           "scheduling hiccup";
  }
  if (peer_io_timeout_ms == 0) {
    return "cluster_config.peer_io_timeout_ms must be >= 1";
  }
  if (commit_wait_ms == 0) return "cluster_config.commit_wait_ms must be >= 1";
  if (compact_threshold == 0) {
    return "cluster_config.compact_threshold must be >= 1";
  }
  return std::nullopt;
}

}  // namespace elect::repl
