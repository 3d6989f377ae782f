#include "render/rasterizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <utility>

#include "scenario/course.hpp"
#include "sim/scene_builder.hpp"

namespace cod::render {
namespace {

using math::Mat4;
using math::Quat;
using math::Vec3;
using math::Vec4;

TEST(Color, PackAndShade) {
  const Color c{200, 100, 50};
  EXPECT_EQ(c.packed(), 0xC86432u);
  const Color half = c.shaded(0.5);
  EXPECT_EQ(half.r, 100);
  EXPECT_EQ(half.g, 50);
  EXPECT_EQ(half.b, 25);
  const Color full = c.shaded(5.0);  // clamped
  EXPECT_EQ(full.r, 200);
}

TEST(Mesh, BuildersProduceExpectedCounts) {
  EXPECT_EQ(Mesh::box({1, 1, 1}, {})->triangleCount(), 12u);
  EXPECT_EQ(Mesh::cylinder(1, 2, 10, {})->triangleCount(), 40u);
  EXPECT_EQ(Mesh::plane(10, 10, 4, {})->triangleCount(), 32u);
  EXPECT_THROW(Mesh::plane(10, 10, 0, {}), std::invalid_argument);
}

TEST(Scene, PolygonCountTracksVisibility) {
  Scene s;
  const auto a = s.add("a", Mesh::box({1, 1, 1}, {}));
  s.add("b", Mesh::plane(5, 5, 2, {}));
  EXPECT_EQ(s.polygonCount(), 12u + 8u);
  s.setVisible(a, false);
  EXPECT_EQ(s.polygonCount(), 8u);
}

TEST(Camera, SphereCulling) {
  Camera cam;
  cam.lookAt({0, 0, 0}, {10, 0, 0});
  cam.setPerspective(math::deg2rad(50), 4.0 / 3.0, 0.3, 100.0);
  EXPECT_TRUE(cam.sphereVisible({{10, 0, 0}, 1.0}));    // dead ahead
  EXPECT_FALSE(cam.sphereVisible({{-10, 0, 0}, 1.0}));  // behind
  EXPECT_FALSE(cam.sphereVisible({{10, 50, 0}, 1.0}));  // far off-axis
  EXPECT_FALSE(cam.sphereVisible({{500, 0, 0}, 1.0}));  // beyond far plane
  // A big sphere straddling a frustum plane is conservatively visible.
  EXPECT_TRUE(cam.sphereVisible({{10, 8, 0}, 6.0}));
  // The planes are cached, so every setter must refresh them.
  cam.lookAt({0, 0, 0}, {-10, 0, 0});
  EXPECT_TRUE(cam.sphereVisible({{-10, 0, 0}, 1.0}));
  EXPECT_FALSE(cam.sphereVisible({{10, 0, 0}, 1.0}));
  EXPECT_FALSE(cam.sphereVisible({{-500, 0, 0}, 1.0}));
  cam.setPerspective(math::deg2rad(50), 4.0 / 3.0, 0.3, 1000.0);
  EXPECT_TRUE(cam.sphereVisible({{-500, 0, 0}, 1.0}));
  cam.setPose({0, 0, 0}, Quat{});  // forward is +X again
  EXPECT_TRUE(cam.sphereVisible({{500, 0, 0}, 1.0}));
  EXPECT_FALSE(cam.sphereVisible({{-10, 0, 0}, 1.0}));
}

TEST(SurroundRig, CoversAbout120Degrees) {
  const SurroundRig rig;
  EXPECT_EQ(rig.channels(), 3u);
  EXPECT_NEAR(math::rad2deg(rig.horizontalCoverage()), 120.0, 15.0);
}

TEST(SurroundRig, ChannelsPointInDifferentDirections) {
  SurroundRig rig;
  rig.setPose({0, 0, 1.7}, Quat{});
  // Probe: a point far to the left is visible only in the left channel.
  const math::Sphere leftPoint{{20, 30, 1.7}, 1.0};
  EXPECT_TRUE(rig.channel(0).sphereVisible(leftPoint));
  EXPECT_FALSE(rig.channel(2).sphereVisible(leftPoint));
  const math::Sphere rightPoint{{20, -30, 1.7}, 1.0};
  EXPECT_FALSE(rig.channel(0).sphereVisible(rightPoint));
  EXPECT_TRUE(rig.channel(2).sphereVisible(rightPoint));
}

TEST(Framebuffer, ClearAndPlotDepthTest) {
  Framebuffer fb(8, 8);
  fb.clear({0, 0, 0});
  EXPECT_DOUBLE_EQ(fb.coverage(), 0.0);
  fb.plot(3, 3, 0.5, {255, 0, 0});
  EXPECT_EQ(fb.pixel(3, 3), 0xFF0000u);
  // A farther fragment loses the depth test.
  fb.plot(3, 3, 0.9, {0, 255, 0});
  EXPECT_EQ(fb.pixel(3, 3), 0xFF0000u);
  // A nearer one wins.
  fb.plot(3, 3, 0.1, {0, 0, 255});
  EXPECT_EQ(fb.pixel(3, 3), 0x0000FFu);
  // Out-of-bounds plots are ignored.
  fb.plot(-1, 0, 0.0, {});
  fb.plot(8, 8, 0.0, {});
  EXPECT_NEAR(fb.coverage(), 1.0 / 64, 1e-12);
}

TEST(Framebuffer, RejectsBadSize) {
  EXPECT_THROW(Framebuffer(0, 10), std::invalid_argument);
}

class RasterizerTest : public ::testing::Test {
 protected:
  RasterizerTest() : fb(64, 48) {
    cam.lookAt({-5, 0, 0}, {0, 0, 0});
    cam.setPerspective(math::deg2rad(60), 4.0 / 3.0, 0.1, 100.0);
  }
  Scene scene;
  Camera cam;
  Framebuffer fb;
  Rasterizer raster;
};

TEST_F(RasterizerTest, DrawsVisibleBox) {
  scene.add("box", Mesh::box({2, 2, 2}, {255, 0, 0}));
  fb.clear({0, 0, 0});
  raster.render(scene, cam, fb);
  EXPECT_GT(raster.stats().trianglesDrawn, 0u);
  EXPECT_GT(raster.stats().pixelsShaded, 0u);
  EXPECT_GT(fb.coverage(), 0.02);
  // The centre pixel shows the box (red-ish, shaded).
  const std::uint32_t centre = fb.pixel(32, 24);
  EXPECT_GT((centre >> 16) & 0xFF, 0u);
}

TEST_F(RasterizerTest, CullsObjectsOutsideFrustum) {
  scene.add("behind", Mesh::box({2, 2, 2}, {}),
            Mat4::translation({-20, 0, 0}));
  raster.render(scene, cam, fb);
  EXPECT_EQ(raster.stats().objectsCulled, 1u);
  EXPECT_EQ(raster.stats().trianglesDrawn, 0u);
}

TEST_F(RasterizerTest, CullUsesTheScaledBoundingSphere) {
  // A unit box stretched to 20 m along y, the way the display stretches
  // the boom: its centre is far off-screen but its body crosses the view.
  scene.add("beam", Mesh::box({1, 1, 1}, {255, 0, 0}),
            Mat4::translation({0, 8, 0}) * Mat4::scale({1, 20, 1}));
  fb.clear({0, 0, 0});
  raster.render(scene, cam, fb);
  EXPECT_EQ(raster.stats().objectsCulled, 0u);
  EXPECT_GT(raster.stats().trianglesDrawn, 0u);
  EXPECT_NE(fb.pixel(32, 24), 0u);
}

TEST_F(RasterizerTest, NearPlaneClippingDoesNotExplode) {
  // A huge ground plane passing through the camera: triangles straddle the
  // near plane and must be clipped, not skipped or smeared.
  scene.add("ground", Mesh::plane(200, 200, 2, {0, 255, 0}),
            Mat4::translation({0, 0, -1.0}));
  fb.clear({0, 0, 0});
  raster.render(scene, cam, fb);
  EXPECT_GT(fb.coverage(), 0.2);  // lower half of the screen is ground
}

TEST_F(RasterizerTest, NearerObjectOccludesFarther) {
  scene.add("far", Mesh::box({4, 4, 4}, {0, 0, 255}),
            Mat4::translation({5, 0, 0}));
  scene.add("near", Mesh::box({1, 1, 1}, {255, 0, 0}),
            Mat4::translation({0, 0, 0}));
  fb.clear({0, 0, 0});
  raster.render(scene, cam, fb);
  const std::uint32_t centre = fb.pixel(32, 24);
  EXPECT_GT((centre >> 16) & 0xFF, centre & 0xFF);  // red in front of blue
}

TEST_F(RasterizerTest, StatsAccumulateAcrossFrames) {
  scene.add("box", Mesh::box({2, 2, 2}, {}));
  raster.render(scene, cam, fb);
  const auto first = raster.stats().trianglesSubmitted;
  raster.render(scene, cam, fb);
  EXPECT_EQ(raster.stats().trianglesSubmitted, 2 * first);
  raster.resetStats();
  EXPECT_EQ(raster.stats().trianglesSubmitted, 0u);
}

TEST_F(RasterizerTest, FrameCostScalesWithPolygons) {
  scene.add("fine", Mesh::plane(10, 10, 32, {}),
            Mat4::rigid(Quat::fromAxisAngle({0, 1, 0}, math::kPi / 2),
                        {2, 0, 0}));
  raster.render(scene, cam, fb);
  const auto fine = raster.stats().trianglesDrawn;
  EXPECT_GT(fine, 500u);
}

// ---- RasterizerReference: the production rasterizer against the scalar
// pipeline it must reproduce bit for bit. The reference transforms and
// shades every triangle's own three vertices, and its fill tests every
// pixel of the bounding box through Framebuffer::plot. Its cull uses the
// same scaled bounding sphere as Rasterizer::render.
class ReferenceRasterizer {
 public:
  void render(const Scene& scene, const Camera& camera, Framebuffer& fb) {
    const Mat4 vp = camera.viewProjection();
    for (const SceneObject& obj : scene.objects()) {
      if (!obj.visible || !obj.mesh) continue;
      ++stats_.objectsSubmitted;
      double scale = 0.0;
      for (int j = 0; j < 3; ++j)
        scale = std::max(scale, Vec3{obj.transform.m[0][j],
                                     obj.transform.m[1][j],
                                     obj.transform.m[2][j]}.norm());
      math::Sphere ws;
      ws.center =
          obj.transform.transformPoint(obj.mesh->boundingSphere().center);
      ws.radius = obj.mesh->boundingSphere().radius * scale;
      if (!camera.sphereVisible(ws)) {
        ++stats_.objectsCulled;
        continue;
      }
      const Mat4 mvp = vp * obj.transform;
      const auto& verts = obj.mesh->vertices();
      for (const auto& tri : obj.mesh->triangles()) {
        ++stats_.trianglesSubmitted;
        const Vec3& a = verts[tri[0]];
        const Vec3& b = verts[tri[1]];
        const Vec3& cpos = verts[tri[2]];
        const Vec3 wa = obj.transform.transformPoint(a);
        const Vec3 wb = obj.transform.transformPoint(b);
        const Vec3 wc = obj.transform.transformPoint(cpos);
        const Vec3 n = (wb - wa).cross(wc - wa).normalized();
        const double k = 0.25 + 0.75 * std::abs(n.dot(light_));
        const Color shadedColor = obj.mesh->color().shaded(k);
        const Vec4 clip[3] = {mvp * Vec4{a, 1.0}, mvp * Vec4{b, 1.0},
                              mvp * Vec4{cpos, 1.0}};
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
        for (int i = 1; i + 1 < nVerts; ++i) {
          const Vec4 fan[3] = {poly[0], poly[i], poly[i + 1]};
          drawTriangle(fb, fan, shadedColor);
        }
      }
    }
  }

  const RenderStats& stats() const { return stats_; }

 private:
  static int clipNear(const Vec4 in[3], Vec4 out[4]) {
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

  void drawTriangle(Framebuffer& fb, const Vec4 clip[3], Color c) {
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
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const double px = x + 0.5;
        const double py = y + 0.5;
        const double w0 = ((sx[1] - px) * (sy[2] - py) -
                           (sx[2] - px) * (sy[1] - py)) * invArea;
        const double w1 = ((sx[2] - px) * (sy[0] - py) -
                           (sx[0] - px) * (sy[2] - py)) * invArea;
        const double w2 = 1.0 - w0 - w1;
        if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) continue;
        const double z = w0 * sz[0] + w1 * sz[1] + w2 * sz[2];
        fb.plot(x, y, z, c);
        ++stats_.pixelsShaded;
      }
    }
  }

  Vec3 light_{-0.4, 0.3, -0.85};
  RenderStats stats_;
};

/// Index of the first pixel whose colour or depth bits differ, or -1.
int firstDifference(const Framebuffer& a, const Framebuffer& b) {
  for (int y = 0; y < a.height(); ++y)
    for (int x = 0; x < a.width(); ++x)
      if (a.pixel(x, y) != b.pixel(x, y) ||
          std::bit_cast<std::uint64_t>(a.depth(x, y)) !=
              std::bit_cast<std::uint64_t>(b.depth(x, y)))
        return y * a.width() + x;
  return -1;
}

TEST(RasterizerReference, TrainingSceneAlongTheDriveRoute) {
  // The rack's scene, seen by all three channels from cab poses spaced
  // along the drive route, with the boom (a scaled unit box, placed the
  // way the display places it) swinging through and out of view.
  const scenario::Course course = scenario::standardLicensureCourse();
  sim::BuiltScene built = sim::buildTrainingScene(course);
  std::vector<math::Vec2> route{course.startPosition};
  for (const scenario::Waypoint& w : course.driveRoute)
    route.push_back(w.position);
  constexpr int kPoses = 60;
  const double total = course.driveDistance();
  for (const auto& [w, h] :
       {std::pair{32, 24}, std::pair{96, 72}, std::pair{160, 120}}) {
    Framebuffer fbRef(w, h), fbNew(w, h);
    ReferenceRasterizer ref;
    Rasterizer raster;
    SurroundRig rig;
    for (int i = 0; i < kPoses; ++i) {
      // Position and heading at distance d along the route polyline.
      double d = total * i / (kPoses - 1);
      std::size_t leg = 1;
      while (leg + 1 < route.size() &&
             d > (route[leg] - route[leg - 1]).norm()) {
        d -= (route[leg] - route[leg - 1]).norm();
        ++leg;
      }
      const math::Vec2 dir = (route[leg] - route[leg - 1]).normalized();
      const math::Vec2 p = route[leg - 1] + dir * d;
      const Quat q = Quat::fromAxisAngle({0, 0, 1}, std::atan2(dir.y, dir.x));
      const Vec3 base{p.x, p.y, 0.0};
      Scene& scene = built.scene;
      scene.setTransform(built.ids.carrier,
                         Mat4::rigid(q, base + Vec3{0, 0, 1.0}));
      const double slew = math::deg2rad(-60.0 + (i * 53) % 120);
      const double pitch = math::deg2rad((i * 37) % 60);
      const double length = 9.0 + (i * 7) % 18;
      const Quat boomQ = q * Quat::fromAxisAngle({0, 0, 1}, slew) *
                         Quat::fromAxisAngle({0, -1, 0}, pitch);
      const Vec3 pivot = base + q.rotate({-1.0, 0.0, 2.2});
      scene.setTransform(built.ids.boom,
                         Mat4::rigid(boomQ, pivot) *
                             Mat4::scale({length, 1.0, 1.0}) *
                             Mat4::translation({0.5, 0.0, 0.0}));
      const Vec3 tip = pivot + boomQ.rotate({length, 0.0, 0.0});
      scene.setTransform(built.ids.hook,
                         Mat4::translation(tip - Vec3{0, 0, 4.0}));
      rig.setPose(base + q.rotate({2.2, 0.8, 2.6}), q);
      for (std::size_t ch = 0; ch < rig.channels(); ++ch) {
        fbRef.clear();
        fbNew.clear();
        ref.render(scene, rig.channel(ch), fbRef);
        raster.render(scene, rig.channel(ch), fbNew);
        ASSERT_EQ(firstDifference(fbRef, fbNew), -1)
            << w << "x" << h << " pose " << i << " channel " << ch;
        ASSERT_TRUE(ref.stats() == raster.stats())
            << w << "x" << h << " pose " << i << " channel " << ch;
      }
    }
    EXPECT_GT(raster.stats().trianglesDrawn, 1000u * kPoses);
  }
}

TEST(RasterizerReference, FuzzedTriangles) {
  // Screen-space triangle shapes the span bounds must get right, built in
  // world space for a camera whose view is the identity: slivers, areas
  // near the fill's 1e-9 cutoff, near-plane straddlers, triangles whose
  // boxes run off-screen, long slivers through a pixel centre (whose
  // rounding a band of 1e-9·|area| alone does not cover), and exactly
  // horizontal or vertical edges on a pixel-centre row or column.
  // Triangles of a batch share one framebuffer so the depth test sees
  // overlaps.
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1p-53;
  };
  Camera cam;
  cam.lookAt({0, 0, 0}, {0, 0, -1}, {0, 1, 0});
  cam.setPerspective(math::deg2rad(50), 4.0 / 3.0, 0.5, 100.0);
  const Mat4& vp = cam.viewProjection();
  constexpr int kBatches = 12500;
  constexpr int kPerBatch = 8;
  int horizontalOnCentre = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const int w = batch % 2 == 0 ? 32 : 96;
    const int h = w * 3 / 4;
    // World point at depth `depth` that lands on screen point (sx, sy).
    const auto atScreen = [&](double sx, double sy, double depth) {
      return Vec3{(2.0 * sx / w - 1.0) * depth / vp.m[0][0],
                  (1.0 - 2.0 * sy / h) * depth / vp.m[1][1], -depth};
    };
    // The screen x and y the fill computes for world point v.
    const auto screenY = [&](const Vec3& v) {
      const Vec4 c = vp * Vec4{v, 1.0};
      return (1.0 - c.y * (1.0 / c.w)) * 0.5 * h;
    };
    const auto screenX = [&](const Vec3& v) {
      const Vec4 c = vp * Vec4{v, 1.0};
      return (c.x * (1.0 / c.w) + 1.0) * 0.5 * w;
    };
    std::vector<Vec3> verts;
    std::vector<std::array<std::uint32_t, 3>> tris;
    for (int t = 0; t < kPerBatch; ++t) {
      const double depth = uniform(1.0, 60.0);
      const auto onScreen = [&] {
        return atScreen(uniform(-0.25 * w, 1.25 * w),
                        uniform(-0.25 * h, 1.25 * h), depth);
      };
      Vec3 v[3] = {onScreen(), onScreen(), onScreen()};
      switch (next() % 7) {
        case 0:  // generic, one vertex at another depth
          v[1] = atScreen(uniform(0, w), uniform(0, h), uniform(1.0, 60.0));
          break;
        case 1: {  // sliver: third vertex a hair off the first edge
          const double f = uniform(-0.5, 1.5);
          const double off = std::pow(10.0, -uniform(3.0, 13.0));
          v[2] = v[0] + (v[1] - v[0]) * f + Vec3{off, -off, 0.0};
          break;
        }
        case 2: {  // screen area near the 1e-9 cutoff: len * lift
          const double sx = uniform(0, w), sy = uniform(0, h);
          const double len = uniform(0.5, 20.0);
          const double f = uniform(-1.0, 2.0);
          const double lift = 1e-9 * uniform(0.3, 3.0) / len;
          v[0] = atScreen(sx, sy, depth);
          v[1] = atScreen(sx + len, sy + len * 0.5, depth);
          v[2] = atScreen(sx + len * f, sy + len * 0.5 * f + lift, depth);
          break;
        }
        case 3:  // near-plane straddler, possibly behind the eye
          v[next() % 3] = {uniform(-3, 3), uniform(-3, 3), uniform(-0.5, 2.0)};
          if (next() % 2) {
            v[next() % 3] = {uniform(-3, 3), uniform(-3, 3),
                             uniform(-0.6, 0.0)};
          }
          break;
        case 4:  // box far off-screen on some side
          for (Vec3& p : v)
            p = atScreen(uniform(-3.0 * w, 4.0 * w), uniform(-3.0 * h, 4.0 * h),
                         depth);
          break;
        case 5: {  // long sliver whose edge runs through a pixel centre,
                   // where the edge functions round to either sign
          const double cx = static_cast<double>(next() % w) + 0.5;
          const double cy = static_cast<double>(next() % h) + 0.5;
          const double dx = uniform(-w, w), dy = uniform(-h, h);
          const double f = uniform(0.5, 2.0);
          const double g = uniform(-1.0, f);
          const double lift = std::pow(10.0, -uniform(3.0, 8.0));
          v[0] = atScreen(cx - dx, cy - dy, depth);
          v[1] = atScreen(cx + dx * f, cy + dy * f, depth);
          v[2] = atScreen(cx + dx * g - dy * lift, cy + dy * g + dx * lift,
                          depth);
          break;
        }
        default: {  // exactly horizontal (or vertical) edge on a centre line
          const bool vertical = next() % 4 == 0;
          const int line = static_cast<int>(next() % (vertical ? w : h));
          const double centre = line + 0.5;
          Vec3 p = vertical ? atScreen(centre, 0, depth)
                            : atScreen(0, centre, depth);
          double& coord = vertical ? p.x : p.y;
          const auto err = [&] {
            return std::abs((vertical ? screenX(p) : screenY(p)) - centre);
          };
          // The closest hit within 32 ulps of the inverse map's guess.
          for (int k = 0; k < 32; ++k) coord = std::nextafter(coord, -1e300);
          double best = coord, bestErr = err();
          for (int k = 0; k < 64; ++k) {
            coord = std::nextafter(coord, 1e300);
            if (err() < bestErr) {
              best = coord;
              bestErr = err();
            }
          }
          coord = best;
          if (err() <= 1e-15 && !vertical) ++horizontalOnCentre;
          v[0] = p;
          v[1] = p;
          if (vertical) {
            v[1].y = atScreen(0, uniform(-0.25 * h, 1.25 * h), depth).y;
          } else {
            v[1].x = atScreen(uniform(-0.25 * w, 1.25 * w), 0, depth).x;
          }
          break;
        }
      }
      const auto base = static_cast<std::uint32_t>(verts.size());
      verts.insert(verts.end(), v, v + 3);
      tris.push_back({base, base + 1, base + 2});
    }
    Scene scene;
    scene.add("fuzz", std::make_shared<Mesh>(verts, tris, Color{200, 120, 40}));
    Framebuffer fbRef(w, h), fbNew(w, h);
    fbRef.clear();
    fbNew.clear();
    ReferenceRasterizer ref;
    Rasterizer raster;
    ref.render(scene, cam, fbRef);
    raster.render(scene, cam, fbNew);
    ASSERT_EQ(firstDifference(fbRef, fbNew), -1) << "batch " << batch;
    ASSERT_TRUE(ref.stats() == raster.stats()) << "batch " << batch;
  }
  EXPECT_GT(horizontalOnCentre, kBatches * kPerBatch / 20);
}

TEST(Ppm, WriteProducesParsableFile) {
  Framebuffer fb(4, 2);
  fb.clear({1, 2, 3});
  const std::string path = ::testing::TempDir() + "/cod_test.ppm";
  ASSERT_TRUE(fb.writePpm(path));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {};
  ASSERT_EQ(std::fscanf(f, "%2s", magic), 1);
  EXPECT_STREQ(magic, "P6");
  int w = 0, h = 0, maxv = 0;
  ASSERT_EQ(std::fscanf(f, "%d %d %d", &w, &h, &maxv), 3);
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxv, 255);
  std::fgetc(f);  // single whitespace after the header
  unsigned char rgb[3];
  ASSERT_EQ(std::fread(rgb, 1, 3, f), 3u);
  EXPECT_EQ(rgb[0], 1);
  EXPECT_EQ(rgb[1], 2);
  EXPECT_EQ(rgb[2], 3);
  std::fclose(f);
}

}  // namespace
}  // namespace cod::render
