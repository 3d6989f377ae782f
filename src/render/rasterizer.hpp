// Z-buffered software rasterizer.
//
// Stands in for the paper's TNT2 M64 graphics cards: frame cost genuinely
// scales with the polygon and pixel load, so the frame-rate experiments
// (E1/E2) measure a real rendering workload. Pipeline per frame:
//
// 1. Per-object frustum cull: the mesh's bounding sphere, its radius
//    scaled by the transform's largest column norm, against the camera's
//    frustum planes, which the camera caches whenever it moves.
// 2. Vertex transform, once per vertex of each surviving object, into
//    world space (for shading) and clip space, kept in buffers reused
//    across frames.
// 3. Per triangle: clip-space trivial rejects and the near-plane clip;
//    only then the flat two-sided shade and, for each fan triangle,
//    perspective divide → viewport map → z-buffered fill.
// 4. The fill evaluates each pixel's barycentrics directly from its centre
//    (w0 and w1 from their edge functions, w2 = 1 − w0 − w1) and keeps the
//    pixel when none is negative and its depth is strictly nearer. It does
//    so only inside a per-row span cut from the three edges and widened by
//    a band that bounds the rounding of those expressions, so the skipped
//    pixels are ones the per-pixel test rejects too, and frames match a
//    full bounding-box scan bit for bit. The barycentrics are not stepped
//    incrementally across a row: stepping rounds differently from direct
//    evaluation and would move edge pixels and depths.
#pragma once

#include <cstdint>
#include <vector>

#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/scene.hpp"

namespace cod::render {

struct RenderStats {
  std::uint64_t objectsSubmitted = 0;
  std::uint64_t objectsCulled = 0;
  std::uint64_t trianglesSubmitted = 0;
  std::uint64_t trianglesClipped = 0;  // rejected by clip-space tests
  std::uint64_t trianglesDrawn = 0;
  std::uint64_t pixelsShaded = 0;

  void reset() { *this = {}; }
  bool operator==(const RenderStats&) const = default;
};

class Rasterizer {
 public:
  /// Directional light (world space, normalized internally).
  void setLightDirection(const math::Vec3& dir);

  /// Render one frame of `scene` from `camera` into `fb`.
  void render(const Scene& scene, const Camera& camera, Framebuffer& fb);

  const RenderStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

 private:
  void drawTriangle(Framebuffer& fb, const math::Vec4 clip[3], Color c);

  math::Vec3 light_{-0.4, 0.3, -0.85};
  RenderStats stats_;
  std::vector<math::Vec3> world_;  // current object's vertices, world space
  std::vector<math::Vec4> clip_;   // ... and clip space
};

}  // namespace cod::render
