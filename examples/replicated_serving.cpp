// Replicated serving, end to end: ONE trainer feeds TWO replicas over
// in-process pipe transports. Every snapshot cut streams its O(dirty)
// delta through the ReplicationSource; each ReplicaManager replays it into
// its own double-buffered resident stores and publishes a local
// generation, while the source-side InferenceServer keeps serving traffic.
//
// While the run is live, a scraper thread polls the pipeline's metrics
// endpoint (the same loopback HTTP surface an external Prometheus would
// hit) and prints each replica's generation lag — the gap between the
// source's head generation and what that replica is serving right now.
//
// Usage: example_replicated_serving [--passes <n>] [--stats-port <port>]
//   --stats-port  port for the live metrics endpoint (default 19763)

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.h"
#include "data/synthetic.h"
#include "train/online_pipeline.h"

using namespace cafe;

namespace {

// One loopback HTTP GET; empty string on any failure (endpoint not up yet).
std::string HttpGet(int port, const char* path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = std::string("GET ") + path +
                        " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

// Pulls `"name": <number>` out of a /metrics.json body (-1 = absent).
double JsonMetric(const std::string& body, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const size_t at = body.find(key);
  if (at == std::string::npos) return -1.0;
  return std::atof(body.c_str() + at + key.size());
}

}  // namespace

int main(int argc, char** argv) {
  SyntheticDatasetConfig data_config;
  data_config.name = "replicated-serving";
  data_config.field_cardinalities = {2000, 1500, 1000, 500};
  data_config.num_numerical = 2;
  data_config.num_samples = 30000;
  data_config.num_days = 3;
  data_config.seed = 77;
  auto data = SyntheticCtrDataset::Generate(data_config);
  CAFE_CHECK(data.ok()) << data.status().ToString();

  StoreFactoryContext context;
  context.embedding.total_features = (*data)->layout().total_features();
  context.embedding.dim = 8;
  context.embedding.compression_ratio = 20.0;
  context.embedding.seed = 97;
  context.layout = (*data)->layout();

  ModelConfig model_config;
  model_config.num_fields = (*data)->num_fields();
  model_config.emb_dim = 8;
  model_config.num_numerical = data_config.num_numerical;
  model_config.seed = 1234;

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 2;
  options.snapshot_interval = 8;
  options.replica_count = 2;
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  options.stats_port = 19763;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--passes") == 0 && i + 1 < argc) {
      options.passes = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stats-port") == 0 && i + 1 < argc) {
      options.stats_port = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }

  std::printf("== one trainer, two replicas (cafe @ 20x, dlrm) ==\n\n");
  std::printf("scraping replica lag live from 127.0.0.1:%d/metrics.json\n\n",
              options.stats_port);

  // The endpoint only exists while RunOnlinePipeline is inside its run, so
  // the scraper retries until the port answers and stops when asked.
  std::atomic<bool> done{false};
  const int port = options.stats_port;
  std::thread scraper([&done, port] {
    const auto start = std::chrono::steady_clock::now();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      const std::string body = HttpGet(port, "/metrics.json");
      if (body.empty()) continue;
      const double head = JsonMetric(body, "replicate.source.head_generation");
      if (head < 0) continue;
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("  t=%4.1fs  head gen %-3.0f", elapsed, head);
      for (int r = 0; r < 2; ++r) {
        const std::string prefix = "replicate.replica" + std::to_string(r);
        const double gen = JsonMetric(body, prefix + ".generation");
        const double lag = JsonMetric(body, prefix + ".lag_generations");
        std::printf(" | replica%d gen %-3.0f lag %.0f", r,
                    gen < 0 ? 0.0 : gen, lag < 0 ? 0.0 : lag);
      }
      std::printf("\n");
    }
  });

  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  **data, options);
  done.store(true);
  scraper.join();
  CAFE_CHECK(result.ok()) << result.status().ToString();

  const auto& source = result->replication_stats;
  std::printf(
      "\ntraining:    %llu steps | %llu generations published\n",
      static_cast<unsigned long long>(result->train_steps),
      static_cast<unsigned long long>(source.generations_published));
  std::printf(
      "stream:      %llu frames / %llu bytes fanned out to %zu replicas\n",
      static_cast<unsigned long long>(source.frames_sent),
      static_cast<unsigned long long>(source.bytes_sent),
      source.replicas.size());
  for (size_t i = 0; i < result->replica_stats.size(); ++i) {
    const auto& replica = result->replica_stats[i];
    std::printf(
        "replica %zu:   generation %llu (head %llu) | %llu base + %llu "
        "deltas | %llu corrupt, %llu gaps, %llu resyncs\n",
        i, static_cast<unsigned long long>(replica.generation),
        static_cast<unsigned long long>(source.head_generation),
        static_cast<unsigned long long>(replica.bases_applied),
        static_cast<unsigned long long>(replica.deltas_applied),
        static_cast<unsigned long long>(replica.corrupt_frames),
        static_cast<unsigned long long>(replica.gap_frames),
        static_cast<unsigned long long>(replica.resyncs_requested));
    CAFE_CHECK(replica.generation == source.head_generation);
  }
  std::printf(
      "\nBoth replicas ended the run serving the source's head generation —\n"
      "every cut reached them as an O(dirty) delta frame, applied into\n"
      "their own double-buffered stores while the source kept training.\n"
      "tests/replication_test.cc proves the replica state is byte-identical\n"
      "for every store type, and that dropped/corrupt/truncated frames\n"
      "recover through the poison -> resync -> rebase path.\n");
  return 0;
}
