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
  NodeTelemetry t = registry_->snapshot(now);
  // A subscriber that just connected has no keyframe to decode deltas
  // against — it would stay blind until the schedule produced one. Any
  // change in the fan-out forces a keyframe instead; the cumulative
  // established-channel counter additionally catches a subscriber *swap*
  // (one leaves, another joins between publishes), which leaves the net
  // count unchanged. (The counter is CB-wide, so unrelated publications
  // connecting cost at worst a spurious keyframe — harmless.)
  const std::size_t fanOut = cb_->channelCount(pub_);
  const std::uint64_t established = cb_->stats().channelsEstablishedOut;
  const bool newSubscriber =
      fanOut != lastFanOut_ || established > lastEstablished_;
  lastFanOut_ = fanOut;
  lastEstablished_ = established;
  const bool keyframe = !lastKeyframe_ || cfg_.keyframeInterval <= 1 ||
                        sinceKeyframe_ >= cfg_.keyframeInterval - 1 ||
                        newSubscriber;
  std::vector<std::uint8_t> bytes =
      keyframe ? encodeTelemetry(t) : encodeTelemetryDelta(t, *lastKeyframe_);
  if (keyframe) {
    lastKeyframe_ = std::move(t);
    sinceKeyframe_ = 0;
    ++keyframes_;
  } else {
    ++sinceKeyframe_;
  }
  core::AttributeSet attrs;
  attrs.set(kTelemetryAttr, std::move(bytes));
  cb_->updateAttributeValues(pub_, attrs, now);
  lastPublishSec_ = now;
  ++published_;
}

void TelemetryPublisher::publishFinal(double now) {
  if (pub_ == core::kInvalidHandle) return;
  // Dropping the keyframe base forces publishNow onto the keyframe path
  // (a publisher cannot delta against a base it no longer holds).
  lastKeyframe_.reset();
  publishNow(now);
  // The record must actually leave: there may be no next tick to flush
  // the coalescer for us.
  cb_->flushBatches();
}

}  // namespace cod::telemetry
