#include "render/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cod::render {

using math::Mat4;
using math::Vec3;
using math::Vec4;

void Rasterizer::setLightDirection(const Vec3& dir) {
  light_ = dir.normalized();
}

namespace {

/// Sutherland–Hodgman clip of a triangle against the near plane z + w > 0.
/// Writes up to 4 vertices; returns the count.
int clipNear(const Vec4 in[3], Vec4 out[4]) {
  int n = 0;
  for (int i = 0; i < 3; ++i) {
    const Vec4& a = in[i];
    const Vec4& b = in[(i + 1) % 3];
    const double da = a.z + a.w;
    const double db = b.z + b.w;
    if (da >= 0.0) out[n++] = a;
    if ((da >= 0.0) != (db >= 0.0)) {
      const double t = da / (da - db);
      out[n++] = a + (b - a) * t;
    }
    if (n >= 4) break;
  }
  return n;
}

}  // namespace

void Rasterizer::drawTriangle(Framebuffer& fb, const Vec4 clip[3], Color c) {
  // Perspective divide → NDC → viewport.
  double sx[3], sy[3], sz[3];
  for (int i = 0; i < 3; ++i) {
    const double invW = 1.0 / clip[i].w;
    const double nx = clip[i].x * invW;
    const double ny = clip[i].y * invW;
    sz[i] = clip[i].z * invW;
    sx[i] = (nx + 1.0) * 0.5 * fb.width();
    sy[i] = (1.0 - ny) * 0.5 * fb.height();
  }
  const double area = (sx[1] - sx[0]) * (sy[2] - sy[0]) -
                      (sx[2] - sx[0]) * (sy[1] - sy[0]);
  if (std::abs(area) < 1e-9) return;
  const int x0 = std::max(0, static_cast<int>(std::floor(
                                 std::min({sx[0], sx[1], sx[2]}))));
  const int x1 = std::min(fb.width() - 1,
                          static_cast<int>(std::ceil(
                              std::max({sx[0], sx[1], sx[2]}))));
  const int y0 = std::max(0, static_cast<int>(std::floor(
                                 std::min({sy[0], sy[1], sy[2]}))));
  const int y1 = std::min(fb.height() - 1,
                          static_cast<int>(std::ceil(
                              std::max({sy[0], sy[1], sy[2]}))));
  if (x0 > x1 || y0 > y1) return;
  const double invArea = 1.0 / area;
  ++stats_.trianglesDrawn;

  // Row spans. Edge k runs between vertices a = k+1 and b = k+2 (mod 3):
  //   E_k(px, py) = (sx[a] - px) * (sy[b] - py) - (sx[b] - px) * (sy[a] - py),
  // so w0 = E_0 / area, w1 = E_1 / area and, in exact arithmetic,
  // w2 = E_2 / area. Along a row E_k is affine in px with slope
  // sy[a] - sy[b]. With ex, ey the largest |sx - px| and |sy - py| over
  // the box's pixel centres, the per-pixel test below computes each E_k to
  // within 8 ulp·ex·ey, and its w2 = 1 - w0 - w1 amounts to an E_2 test off
  // by under 70 ulp·ex·ey. A pixel the test keeps therefore has
  // sign(area)·E_k >= -tol for every k; the 1e-9·|area| term also covers a
  // w that underflows to zero. The span solves those three inequalities
  // for px, and a row is dropped only when an exactly horizontal edge
  // lies outside the band.
  const double s = area > 0.0 ? 1.0 : -1.0;
  const double px0 = x0 + 0.5;
  double ex = 0.0, ey = 0.0;
  for (int i = 0; i < 3; ++i) {
    ex = std::max({ex, std::abs(sx[i] - px0), std::abs(sx[i] - (x1 + 0.5))});
    ey = std::max({ey, std::abs(sy[i] - (y0 + 0.5)),
                   std::abs(sy[i] - (y1 + 0.5))});
  }
  const double tol = 64.0 * std::numeric_limits<double>::epsilon() * (ex * ey) +
                     1e-9 * std::abs(area);
  double ax[3], bx[3], slope[3], invSlope[3];
  for (int k = 0; k < 3; ++k) {
    const int a = (k + 1) % 3, b = (k + 2) % 3;
    ax[k] = sx[a] - px0;
    bx[k] = sx[b] - px0;
    slope[k] = s * (sy[a] - sy[b]);
    invSlope[k] = 1.0 / slope[k];
  }
  const std::uint32_t packed = c.packed();
  std::uint64_t shaded = 0;
  for (int y = y0; y <= y1; ++y) {
    const double py = y + 0.5;
    // Pixel offsets t = x - x0 in [lo, hi] satisfy every edge's band. A
    // NaN bound (non-finite input) leaves the span at the whole box row.
    double lo = 0.0;
    double hi = x1 - x0;
    bool empty = false;
    for (int k = 0; k < 3; ++k) {
      const int a = (k + 1) % 3, b = (k + 2) % 3;
      const double v =
          s * (ax[k] * (sy[b] - py) - bx[k] * (sy[a] - py)) + tol;
      if (slope[k] > 0.0) {
        lo = std::max(lo, -v * invSlope[k]);
      } else if (slope[k] < 0.0) {
        hi = std::min(hi, -v * invSlope[k]);
      } else if (v < 0.0) {
        empty = true;
      }
    }
    if (empty || !(lo <= hi)) continue;
    const int tl = static_cast<int>(lo);
    const int xs = x0 + tl + (tl < lo ? 1 : 0);
    const int xe = x0 + static_cast<int>(hi);
    std::uint32_t* colorRow = fb.colorRow(y);
    double* depthRow = fb.depthRow(y);
    for (int x = xs; x <= xe; ++x) {
      const double px = x + 0.5;
      const double w0 = ((sx[1] - px) * (sy[2] - py) -
                         (sx[2] - px) * (sy[1] - py)) * invArea;
      const double w1 = ((sx[2] - px) * (sy[0] - py) -
                         (sx[0] - px) * (sy[2] - py)) * invArea;
      const double w2 = 1.0 - w0 - w1;
      if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) continue;
      const double z = w0 * sz[0] + w1 * sz[1] + w2 * sz[2];
      ++shaded;
      if (z >= depthRow[x]) continue;
      depthRow[x] = z;
      colorRow[x] = packed;
    }
  }
  stats_.pixelsShaded += shaded;
}

void Rasterizer::render(const Scene& scene, const Camera& camera,
                        Framebuffer& fb) {
  const Mat4& vp = camera.viewProjection();
  for (const SceneObject& obj : scene.objects()) {
    if (!obj.visible || !obj.mesh) continue;
    ++stats_.objectsSubmitted;
    const Mesh& mesh = *obj.mesh;
    const Mat4& model = obj.transform;
    // Per-object cull: world bounding sphere vs frustum. A scaling
    // transform stretches the sphere by at most its largest column norm.
    double scale = 0.0;
    for (int j = 0; j < 3; ++j)
      scale = std::max(
          scale, Vec3{model.m[0][j], model.m[1][j], model.m[2][j]}.norm());
    const math::Sphere ws{model.transformPoint(mesh.boundingSphere().center),
                          mesh.boundingSphere().radius * scale};
    if (!camera.sphereVisible(ws)) {
      ++stats_.objectsCulled;
      continue;
    }
    const Mat4 mvp = vp * model;
    const auto& verts = mesh.vertices();
    world_.resize(verts.size());
    clip_.resize(verts.size());
    for (std::size_t i = 0; i < verts.size(); ++i) {
      world_[i] = model.transformPoint(verts[i]);
      clip_[i] = mvp * Vec4{verts[i], 1.0};
    }
    for (const auto& tri : mesh.triangles()) {
      ++stats_.trianglesSubmitted;
      const Vec4 clip[3] = {clip_[tri[0]], clip_[tri[1]], clip_[tri[2]]};
      // Quick reject: all vertices outside one clip half-space.
      auto allOutside = [&](auto pred) {
        return pred(clip[0]) && pred(clip[1]) && pred(clip[2]);
      };
      if (allOutside([](const Vec4& v) { return v.x < -v.w; }) ||
          allOutside([](const Vec4& v) { return v.x > v.w; }) ||
          allOutside([](const Vec4& v) { return v.y < -v.w; }) ||
          allOutside([](const Vec4& v) { return v.y > v.w; }) ||
          allOutside([](const Vec4& v) { return v.z > v.w; })) {
        ++stats_.trianglesClipped;
        continue;
      }
      Vec4 poly[4];
      const int nVerts = clipNear(clip, poly);
      if (nVerts < 3) {
        ++stats_.trianglesClipped;
        continue;
      }
      // Flat shade from the world-space normal.
      const Vec3& wa = world_[tri[0]];
      const Vec3 n =
          (world_[tri[1]] - wa).cross(world_[tri[2]] - wa).normalized();
      const double k = 0.25 + 0.75 * std::abs(n.dot(light_));
      const Color shadedColor = mesh.color().shaded(k);
      // Fan-triangulate the clipped polygon (two-sided fill).
      for (int i = 1; i + 1 < nVerts; ++i) {
        const Vec4 fan[3] = {poly[0], poly[i], poly[i + 1]};
        drawTriangle(fb, fan, shadedColor);
      }
    }
  }
}

}  // namespace cod::render
