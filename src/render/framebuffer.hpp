// Offscreen color + depth target for the software rasterizer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "render/mesh.hpp"

namespace cod::render {

class Framebuffer {
 public:
  Framebuffer(int width, int height);

  int width() const { return w_; }
  int height() const { return h_; }

  void clear(Color c = {40, 60, 90});  // sky

  std::uint32_t pixel(int x, int y) const {
    return color_[static_cast<std::size_t>(y) * w_ + x];
  }
  double depth(int x, int y) const {
    return depth_[static_cast<std::size_t>(y) * w_ + x];
  }
  void plot(int x, int y, double z, Color c);

  /// Row `y`'s colour and depth, `width()` entries each, for span fills
  /// that keep their own bounds.
  std::uint32_t* colorRow(int y) {
    return color_.data() + static_cast<std::size_t>(y) * w_;
  }
  double* depthRow(int y) {
    return depth_.data() + static_cast<std::size_t>(y) * w_;
  }

  /// Fraction of pixels whose depth was written this frame.
  double coverage() const;

  /// Save as binary PPM (examples dump screenshots with this).
  bool writePpm(const std::string& path) const;

 private:
  int w_;
  int h_;
  std::vector<std::uint32_t> color_;
  std::vector<double> depth_;
};

}  // namespace cod::render
