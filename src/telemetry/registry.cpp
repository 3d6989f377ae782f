#include "telemetry/registry.hpp"

namespace cod::telemetry {

NodeTelemetry StatRegistry::snapshot(double now) {
  NodeTelemetry t;
  t.seq = nextSeq_++;
  t.node = cb_->name();
  t.addr = cb_->address();
  t.nodeTimeSec = now;
  t.cb = cb_->stats();
  if (const net::TransportStats* ts = cb_->transportStats()) t.transport = *ts;
  t.channels = cb_->channelHealth();
  for (std::size_t i = 0; i < CbHistograms::kCount; ++i)
    t.hists[i] = cb_->histograms().at(i).snapshot();
  t.tableLoad = {cb_->tableLoad()};
  if (cb_->config().phaseProfile) {
    t.phaseProfiling = true;  // record carries the phase block
    for (std::size_t i = 0; i < kTickPhaseCount; ++i)
      t.phases[i] = cb_->phaseHistograms().at(i).snapshot();
  }
  return t;
}

}  // namespace cod::telemetry
