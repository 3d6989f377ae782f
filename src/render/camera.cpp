#include "render/camera.hpp"

#include <cmath>

namespace cod::render {

using math::Mat4;
using math::Plane;
using math::Quat;
using math::Vec3;
using math::Vec4;

Camera::Camera() {
  setPerspective(fovY_, aspect_, zNear_, zFar_);
  lookAt({0, 0, 1.7}, {1, 0, 1.7});
}

void Camera::setPose(const Vec3& eye, const Quat& orientation) {
  eye_ = eye;
  // Camera convention: forward is +X of the body frame, up is +Z.
  const Vec3 fwd = orientation.rotate({1, 0, 0});
  const Vec3 up = orientation.rotate({0, 0, 1});
  view_ = Mat4::lookAt(eye, eye + fwd, up);
  updateFrustum();
}

void Camera::lookAt(const Vec3& eye, const Vec3& target, const Vec3& up) {
  eye_ = eye;
  view_ = Mat4::lookAt(eye, target, up);
  updateFrustum();
}

void Camera::setPerspective(double fovYRad, double aspect, double zNear,
                            double zFar) {
  fovY_ = fovYRad;
  aspect_ = aspect;
  zNear_ = zNear;
  zFar_ = zFar;
  proj_ = Mat4::perspective(fovYRad, aspect, zNear, zFar);
  updateFrustum();
}

void Camera::updateFrustum() {
  viewProj_ = proj_ * view_;
  // Gribb–Hartmann extraction from the combined matrix (row-major).
  const Mat4& m = viewProj_;
  auto row = [&](int i) {
    return Vec4{m.m[i][0], m.m[i][1], m.m[i][2], m.m[i][3]};
  };
  const Vec4 r0 = row(0), r1 = row(1), r2 = row(2), r3 = row(3);
  auto toPlane = [](const Vec4& v) {
    const Vec3 n = v.xyz();
    const double len = n.norm();
    return len > 0 ? Plane{n / len, v.w / len} : Plane{};
  };
  planes_ = {
      toPlane(r3 + r0),  // left
      toPlane(r3 - r0),  // right
      toPlane(r3 + r1),  // bottom
      toPlane(r3 - r1),  // top
      toPlane(r3 + r2),  // near
      toPlane(r3 - r2),  // far
  };
}

bool Camera::sphereVisible(const math::Sphere& s) const {
  for (const Plane& p : planes_) {
    if (p.signedDistance(s.center) < -s.radius) return false;
  }
  return true;
}

SurroundRig::SurroundRig(double channelFovYRad, double aspect,
                         double yawStepRad)
    : yawStep_(yawStepRad), fovY_(channelFovYRad), aspect_(aspect) {
  cams_.resize(3);
  for (Camera& c : cams_) c.setPerspective(fovY_, aspect_, 0.3, 600.0);
  setPose({0, 0, 1.7}, Quat{});
}

void SurroundRig::setPose(const Vec3& eye, const Quat& orientation) {
  // Channel order: left, centre, right.
  const double yaws[3] = {yawStep_, 0.0, -yawStep_};
  for (std::size_t i = 0; i < cams_.size(); ++i) {
    const Quat q = orientation * Quat::fromAxisAngle({0, 0, 1}, yaws[i]);
    cams_[i].setPose(eye, q);
  }
}

double SurroundRig::horizontalCoverage() const {
  const double hFov = 2.0 * std::atan(std::tan(fovY_ / 2.0) * aspect_);
  return hFov + 2.0 * yawStep_;
}

}  // namespace cod::render
