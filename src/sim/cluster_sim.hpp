#pragma once
///
/// \file cluster_sim.hpp
/// \brief Virtual-time execution of a static task DAG on a model cluster.
///
/// This is the performance substrate substituting for the paper's Skylake
/// cluster (see DESIGN.md): N nodes, C cores each, per-node capacity traces,
/// and an alpha/beta (latency + bandwidth) network. Tasks carry abstract
/// work units (calibrated from real kernel timings by the benches); edges
/// are either same-run dependencies or cross-node messages that incur
/// transfer time. Scheduling is FIFO-by-ready-time per node onto the
/// earliest free core — the behaviour of a work queue per locality.
///
/// The simulator reports makespan, per-task start/finish and per-node busy
/// time, which is exactly the observable (busy_time performance counter)
/// the load balancer consumes.
///

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/capacity_trace.hpp"

namespace nlh::sim {

/// Network model: transfer_time(bytes) = latency + bytes / bandwidth.
/// Intra-node messages are free.
struct network_model {
  double latency_s = 1e-6;            ///< per-message latency (alpha)
  double bandwidth_bytes_per_s = 1e10;///< link bandwidth (beta)

  double transfer_time(double bytes) const {
    return latency_s + bytes / bandwidth_bytes_per_s;
  }
};

class cluster_sim {
 public:
  /// \param nodes           number of virtual compute nodes
  /// \param cores_per_node  virtual cores per node (CPUs in the paper's terms)
  cluster_sim(int nodes, int cores_per_node);

  void set_network(network_model net) { net_ = net; }
  void set_capacity(int node, capacity_trace trace);
  /// Convenience: constant speed in work-units/second.
  void set_speed(int node, double work_units_per_s);

  int num_nodes() const { return static_cast<int>(node_traces_.size()); }
  int cores_per_node() const { return cores_per_node_; }

  /// Add a task bound to `node` costing `work` units; returns its id.
  /// `deps` are task ids that must finish before this task becomes ready.
  /// `label` is carried into execution traces (see task_records()).
  int add_task(int node, double work, const std::vector<int>& deps = {},
               std::string label = {});

  /// Message edge: `to_task` additionally waits for `bytes` sent when
  /// `from_task` finishes. Transfer time applies only when the two tasks
  /// live on different nodes.
  void add_message(int from_task, int to_task, double bytes);

  /// Execute the DAG; callable once. Asserts on dependency cycles.
  void run();

  double makespan() const;
  double task_start(int id) const;
  double task_finish(int id) const;

  /// Virtual seconds node's cores spent executing tasks (sum over cores).
  double node_busy_time(int node) const;
  /// Busy time clipped to the window [t0, t1].
  double node_busy_in_window(int node, double t0, double t1) const;
  /// busy / (window * cores): the busy_time counter fraction.
  double node_busy_fraction(int node, double t0, double t1) const;

  /// Total bytes that crossed the network (inter-node messages only).
  double network_bytes() const { return network_bytes_; }
  std::int64_t network_messages() const { return network_messages_; }

  /// One executed task for trace export (valid after run()).
  struct task_record {
    int id;
    int node;
    int core;          ///< core index within the node the task ran on
    double start;
    double finish;
    double work;
    std::string label;
  };

  /// All tasks in execution order (sorted by start time).
  std::vector<task_record> task_records() const;

  /// Write the schedule as a Chrome tracing JSON (chrome://tracing /
  /// Perfetto): one process per node, one thread lane per core,
  /// microsecond timestamps (virtual seconds * 1e6).
  void write_chrome_trace(std::ostream& os) const;

 private:
  struct task {
    int node;
    double work;
    std::vector<int> dependents;       ///< dep edges out of this task
    std::vector<std::pair<int, double>> msg_out;  ///< (to_task, bytes)
    int pending = 0;                   ///< unmet deps + unarrived messages
    double ready_time = 0.0;
    double start = -1.0;
    double finish = -1.0;
    int core = -1;
    std::string label;
  };

  struct busy_interval {
    double start;
    double end;
  };

  int cores_per_node_;
  network_model net_;
  std::vector<capacity_trace> node_traces_;
  std::vector<task> tasks_;
  std::vector<std::vector<busy_interval>> node_busy_;
  double makespan_ = 0.0;
  double network_bytes_ = 0.0;
  std::int64_t network_messages_ = 0;
  bool ran_ = false;
};

}  // namespace nlh::sim
