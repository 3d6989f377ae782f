#include "telemetry/publisher.hpp"

namespace cod::telemetry {

TelemetryPublisher::TelemetryPublisher(TelemetryConfig cfg)
    : core::LogicalProcess("telemetry"), cfg_(cfg) {}

void TelemetryPublisher::bind(core::CommunicationBackbone& cb) {
  cb_ = &cb;
  cb.attach(*this);
  registry_.emplace(cb);
  pub_ = cb.publishObjectClass(*this, kTelemetryClass);
}

void TelemetryPublisher::step(double now) {
  if (pub_ == core::kInvalidHandle) return;
  if (now - lastPublishSec_ < cfg_.intervalSec) return;
  publishNow(now);
}

void TelemetryPublisher::publishNow(double now) {
  if (pub_ == core::kInvalidHandle) return;
  // The snapshot is taken before this update perturbs the counters, so a
  // record never counts its own datagram.
  core::AttributeSet attrs;
  attrs.set(kTelemetryAttr, encodeTelemetry(registry_->snapshot(now)));
  cb_->updateAttributeValues(pub_, attrs, now);
  lastPublishSec_ = now;
  ++published_;
}

void TelemetryPublisher::publishFinal(double now) {
  if (pub_ == core::kInvalidHandle) return;
  publishNow(now);
  cb_->flushBatches();
}

}  // namespace cod::telemetry
