// Perspective camera, view frustum, and the three-channel surround rig.
//
// The paper drives three monitors giving ~120 degrees of surround view
// (§3.7, Fig. 10); each monitor is one camera of the rig, yawed ±40° from
// the centre channel.
#pragma once

#include <array>
#include <vector>

#include "math/geometry.hpp"
#include "math/mat.hpp"
#include "math/quat.hpp"

namespace cod::render {

class Camera {
 public:
  Camera();

  void setPose(const math::Vec3& eye, const math::Quat& orientation);
  void lookAt(const math::Vec3& eye, const math::Vec3& target,
              const math::Vec3& up = {0, 0, 1});
  void setPerspective(double fovYRad, double aspect, double zNear, double zFar);

  const math::Vec3& eye() const { return eye_; }
  double fovY() const { return fovY_; }
  double aspect() const { return aspect_; }
  double zNear() const { return zNear_; }
  double zFar() const { return zFar_; }

  const math::Mat4& view() const { return view_; }
  const math::Mat4& projection() const { return proj_; }
  const math::Mat4& viewProjection() const { return viewProj_; }

  /// The six frustum planes in world space (normals pointing inward) —
  /// used for per-object bounding-sphere culling.
  const std::array<math::Plane, 6>& frustumPlanes() const { return planes_; }

  /// Conservative sphere-in-frustum test.
  bool sphereVisible(const math::Sphere& s) const;

 private:
  /// Recompute viewProj_ and planes_; every setter that moves view_ or
  /// proj_ calls it, so culling reads them without rebuilding them.
  void updateFrustum();

  math::Vec3 eye_;
  math::Mat4 view_;
  math::Mat4 proj_;
  math::Mat4 viewProj_;
  std::array<math::Plane, 6> planes_;
  double fovY_ = math::deg2rad(50.0);
  double aspect_ = 4.0 / 3.0;
  double zNear_ = 0.3;
  double zFar_ = 600.0;
};

/// Three synchronized channels spanning ~120° (paper Fig. 10).
class SurroundRig {
 public:
  /// `channelFovYRad` vertical FOV per monitor; horizontal span follows the
  /// aspect; `yawStepRad` between adjacent channels (default 40°).
  SurroundRig(double channelFovYRad = math::deg2rad(35.0),
              double aspect = 4.0 / 3.0,
              double yawStepRad = math::deg2rad(40.0));

  /// Pose the whole rig (vehicle cab position and orientation).
  void setPose(const math::Vec3& eye, const math::Quat& orientation);

  std::size_t channels() const { return cams_.size(); }
  const Camera& channel(std::size_t i) const { return cams_.at(i); }

  /// Total horizontal coverage of the rig, radians.
  double horizontalCoverage() const;

 private:
  std::vector<Camera> cams_;
  double yawStep_;
  double fovY_;
  double aspect_;
};

}  // namespace cod::render
