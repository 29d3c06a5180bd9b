#include "data/render.h"

#include <cmath>

#include "data/labels.h"
#include "image/draw.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace edgestab {

namespace {

/// Per-instance drawing context: canvas, RNG, object placement.
struct Ctx {
  Image* img;
  Pcg32* rng;
  float s;   ///< canvas size in pixels
  float cx;  ///< object center x
  float cy;  ///< object vertical anchor (baseline-ish)
  float scale;

  float u(float frac) const { return frac * s * scale; }
  float jitter(double lo, double hi) const {
    return static_cast<float>(rng->uniform(lo, hi));
  }
};

Rgb jitter_color(Pcg32& rng, const Rgb& base, float amount) {
  auto j = [&](float v) {
    return std::clamp(
        v + static_cast<float>(rng.uniform(-amount, amount)), 0.0f, 1.0f);
  };
  return {j(base.r), j(base.g), j(base.b)};
}

void draw_background(Image& img, Pcg32& rng) {
  // Wall gradient + table surface; colors vary per instance.
  Rgb wall_top = jitter_color(
      rng, {0.68f, 0.68f, 0.66f}, 0.26f);
  Rgb wall_bottom = wall_top.scaled(
      static_cast<float>(rng.uniform(0.75, 0.95)));
  fill_vertical_gradient(img, wall_top, wall_bottom);

  float s = static_cast<float>(img.width());
  float table_y = s * static_cast<float>(rng.uniform(0.68, 0.8));
  Rgb table = jitter_color(rng, {0.45f, 0.35f, 0.28f}, 0.15f);
  paint_sdf(img,
            SdfRoundRect{s / 2, (table_y + s) / 2, s / 2,
                         (s - table_y) / 2, 1.0f},
            table);
  // Table wood grain.
  texture_speckle(img,
                  SdfRoundRect{s / 2, (table_y + s) / 2, s / 2,
                               (s - table_y) / 2, 1.0f},
                  0.02f, 5.0f, rng.next_u64());
  // Wall texture.
  texture_speckle(img, SdfRoundRect{s / 2, table_y / 2, s / 2, table_y / 2,
                                    1.0f},
                  0.012f, 9.0f, rng.next_u64());
}

/// Incidental clutter: a couple of small background shapes.
void draw_clutter(Image& img, Pcg32& rng) {
  float s = static_cast<float>(img.width());
  int count = rng.uniform_int(0, 3);
  for (int i = 0; i < count; ++i) {
    Rgb c = jitter_color(rng, {0.5f, 0.5f, 0.5f}, 0.35f);
    float x = s * static_cast<float>(rng.uniform(0.05, 0.95));
    float y = s * static_cast<float>(rng.uniform(0.1, 0.55));
    float r = s * static_cast<float>(rng.uniform(0.025, 0.09));
    switch (rng.uniform_int(3u)) {
      case 0: paint_sdf(img, SdfCircle{x, y, r}, c, 0.85f); break;
      case 1:
        paint_sdf(img, SdfRoundRect{x, y, r, r * 1.4f, r * 0.3f}, c, 0.85f);
        break;
      default:
        // Vertical bottle-ish silhouettes are deliberately distracting.
        paint_sdf(img, SdfRoundRect{x, y, r * 0.5f, r * 1.8f, r * 0.2f}, c,
                  0.85f);
        break;
    }
  }
}

/// Shared bottle chassis. Proportions/colors are supplied per class.
struct BottleStyle {
  float body_w, body_h;   ///< fractions of canvas
  float neck_w, neck_h;
  float shoulder_h;       ///< trapezoid transition height
  Rgb glass;
  float glass_opacity;
  Rgb cap;
  Rgb label;
  float label_y_frac;     ///< label center within body (0 top, 1 bottom)
  float label_h_frac;
  bool foil;
};

void draw_bottle(Ctx& ctx, const BottleStyle& st) {
  Image& img = *ctx.img;
  float bw = ctx.u(st.body_w);
  float bh = ctx.u(st.body_h);
  float nw = ctx.u(st.neck_w);
  float nh = ctx.u(st.neck_h);
  float sh = ctx.u(st.shoulder_h);
  float base_y = ctx.cy;
  float body_cy = base_y - bh / 2;
  float shoulder_top = base_y - bh - sh;
  float neck_cy = shoulder_top - nh / 2;

  paint_shadow(img, ctx.cx, base_y + ctx.u(0.015f), bw * 0.85f,
               ctx.u(0.035f), 0.45f);

  Rgb dark = st.glass.scaled(0.55f);
  // Neck.
  paint_sdf_hgrad(img,
                  SdfRoundRect{ctx.cx, neck_cy, nw / 2, nh / 2,
                               nw * 0.3f},
                  dark, st.glass, ctx.cx - nw / 2, ctx.cx + nw / 2,
                  st.glass_opacity);
  // Shoulders.
  paint_sdf_hgrad(img,
                  SdfTrapezoid{ctx.cx, shoulder_top + sh / 2, sh, nw / 2,
                               bw / 2},
                  dark, st.glass, ctx.cx - bw / 2, ctx.cx + bw / 2,
                  st.glass_opacity);
  // Body.
  paint_sdf_hgrad(img,
                  SdfRoundRect{ctx.cx, body_cy, bw / 2, bh / 2, bw * 0.18f},
                  dark, st.glass, ctx.cx - bw / 2, ctx.cx + bw / 2,
                  st.glass_opacity);
  // Cap / foil.
  float cap_h = ctx.u(0.035f);
  Rgb cap_color = st.foil ? Rgb{0.75f, 0.7f, 0.35f} : st.cap;
  paint_sdf(img,
            SdfRoundRect{ctx.cx, neck_cy - nh / 2 - cap_h / 2,
                         nw * 0.62f, cap_h, cap_h * 0.4f},
            cap_color);
  // Label band with simple stripe art.
  float label_cy = base_y - bh + bh * st.label_y_frac;
  float label_h = bh * st.label_h_frac;
  SdfRoundRect label_sdf{ctx.cx, label_cy, bw * 0.46f, label_h / 2,
                         2.0f};
  paint_sdf(img, label_sdf, st.label, 0.95f);
  Rgb accent = jitter_color(*ctx.rng, {0.5f, 0.2f, 0.25f}, 0.25f);
  texture_stripes(img, label_sdf, accent, label_h * 0.8f, 0.3f,
                  ctx.jitter(0.0, 1.0), 0.85f);
  // Specular highlight along one flank.
  paint_highlight(img, ctx.cx - bw * 0.28f, body_cy - bh * 0.15f,
                  bw * 0.12f, bh * 0.4f, 0.35f);
}

void render_water_bottle(Ctx& ctx) {
  BottleStyle st;
  st.body_w = ctx.jitter(0.20, 0.26);
  st.body_h = ctx.jitter(0.34, 0.42);
  st.neck_w = ctx.jitter(0.075, 0.10);
  st.neck_h = ctx.jitter(0.045, 0.08);
  st.shoulder_h = ctx.jitter(0.04, 0.07);
  // Clear / light blue plastic, translucent — but some sport bottles are
  // opaque and tinted, overlapping the glass-bottle palettes.
  if (ctx.rng->bernoulli(0.4)) {
    st.glass = jitter_color(*ctx.rng, {0.35f, 0.45f, 0.35f}, 0.22f);
    st.glass_opacity = ctx.jitter(0.85, 1.0);
  } else {
    st.glass = jitter_color(*ctx.rng, {0.62f, 0.78f, 0.88f}, 0.14f);
    st.glass_opacity = ctx.jitter(0.5, 0.78);
  }
  st.cap = ctx.rng->bernoulli(0.5) ? Rgb{0.85f, 0.85f, 0.9f}
                                   : jitter_color(*ctx.rng,
                                                  {0.2f, 0.45f, 0.8f}, 0.15f);
  st.label = jitter_color(*ctx.rng, {0.92f, 0.94f, 0.96f}, 0.06f);
  st.label_y_frac = ctx.jitter(0.45, 0.6);
  st.label_h_frac = ctx.jitter(0.2, 0.3);
  st.foil = false;
  draw_bottle(ctx, st);
  // Ribbing rings typical of PET bottles.
  if (ctx.rng->bernoulli(0.6)) {
    float bw = ctx.u(st.body_w);
    float bh = ctx.u(st.body_h);
    SdfRoundRect body{ctx.cx, ctx.cy - bh / 2, bw / 2, bh / 2, bw * 0.18f};
    texture_stripes(*ctx.img, body, st.glass.scaled(0.8f), ctx.u(0.035f),
                    0.25f, 0.0f, 0.4f);
  }
}

void render_beer_bottle(Ctx& ctx) {
  BottleStyle st;
  st.body_w = ctx.jitter(0.18, 0.23);
  st.body_h = ctx.jitter(0.30, 0.36);
  st.neck_w = ctx.jitter(0.06, 0.08);
  st.neck_h = ctx.jitter(0.10, 0.15);  // long neck
  st.shoulder_h = ctx.jitter(0.05, 0.08);
  const Rgb palettes[] = {{0.45f, 0.26f, 0.08f},   // amber
                          {0.35f, 0.20f, 0.06f},   // brown
                          {0.22f, 0.38f, 0.16f},   // green
                          {0.14f, 0.22f, 0.12f}};  // dark (wine-like)
  st.glass = jitter_color(*ctx.rng, ctx.rng->pick(std::vector<Rgb>(
                                        palettes, palettes + 4)),
                          0.08f);
  st.glass_opacity = 1.0f;
  st.cap = {0.8f, 0.78f, 0.72f};  // crown cap
  st.label = jitter_color(*ctx.rng, {0.88f, 0.82f, 0.6f}, 0.1f);
  st.label_y_frac = ctx.jitter(0.4, 0.55);
  st.label_h_frac = ctx.jitter(0.25, 0.35);
  st.foil = ctx.rng->bernoulli(0.3);
  draw_bottle(ctx, st);
}

void render_wine_bottle(Ctx& ctx) {
  BottleStyle st;
  st.body_w = ctx.jitter(0.16, 0.21);
  st.body_h = ctx.jitter(0.36, 0.44);  // tall
  st.neck_w = ctx.jitter(0.055, 0.075);
  st.neck_h = ctx.jitter(0.12, 0.17);
  st.shoulder_h = ctx.jitter(0.08, 0.12);  // sloped shoulders
  const Rgb palettes[] = {{0.10f, 0.18f, 0.10f},   // dark green
                          {0.16f, 0.06f, 0.08f},   // dark red
                          {0.10f, 0.10f, 0.12f},   // near black
                          {0.20f, 0.34f, 0.15f}};  // lighter (beer-like)
  st.glass = jitter_color(*ctx.rng, ctx.rng->pick(std::vector<Rgb>(
                                        palettes, palettes + 4)),
                          0.06f);
  st.glass_opacity = 1.0f;
  st.cap = {0.45f, 0.08f, 0.1f};  // foil capsule
  st.label = jitter_color(*ctx.rng, {0.9f, 0.88f, 0.8f}, 0.08f);
  st.label_y_frac = ctx.jitter(0.55, 0.7);  // low label
  st.label_h_frac = ctx.jitter(0.22, 0.32);
  st.foil = true;
  draw_bottle(ctx, st);
}

void render_purse(Ctx& ctx) {
  Image& img = *ctx.img;
  float w = ctx.u(ctx.jitter(0.30, 0.38));
  float h = ctx.u(ctx.jitter(0.20, 0.26));
  float cy = ctx.cy - h / 2;
  Rgb leather;
  switch (ctx.rng->uniform_int(3u)) {
    case 0: leather = jitter_color(*ctx.rng, {0.45f, 0.2f, 0.15f}, 0.12f); break;
    case 1: leather = jitter_color(*ctx.rng, {0.7f, 0.45f, 0.5f}, 0.2f); break;
    default:  // fabric tones shared with backpacks
      leather = jitter_color(*ctx.rng, {0.25f, 0.35f, 0.5f}, 0.18f);
      break;
  }
  paint_shadow(img, ctx.cx, ctx.cy + ctx.u(0.01f), w * 0.6f, ctx.u(0.03f),
               0.4f);
  // Handle arc: two capsules meeting above the bag.
  float hh = ctx.u(ctx.jitter(0.08, 0.14));
  Rgb handle = leather.scaled(0.7f);
  paint_sdf(img,
            SdfCapsule{ctx.cx - w * 0.3f, cy - h / 2, ctx.cx,
                       cy - h / 2 - hh, ctx.u(0.012f)},
            handle);
  paint_sdf(img,
            SdfCapsule{ctx.cx + w * 0.3f, cy - h / 2, ctx.cx,
                       cy - h / 2 - hh, ctx.u(0.012f)},
            handle);
  // Body: trapezoid flaring downward.
  paint_sdf_hgrad(img, SdfTrapezoid{ctx.cx, cy, h, w * 0.38f, w * 0.5f},
                  leather.scaled(0.6f), leather, ctx.cx - w / 2,
                  ctx.cx + w / 2);
  // Flap + clasp.
  paint_sdf(img,
            SdfTrapezoid{ctx.cx, cy - h * 0.28f, h * 0.42f, w * 0.36f,
                         w * 0.43f},
            leather.scaled(0.85f), 0.9f);
  paint_sdf(img, SdfCircle{ctx.cx, cy - h * 0.1f, ctx.u(0.015f)},
            {0.85f, 0.8f, 0.55f});
  // Stitching texture.
  texture_speckle(img, SdfTrapezoid{ctx.cx, cy, h, w * 0.38f, w * 0.5f},
                  0.03f, 2.5f, ctx.rng->next_u64());
  paint_highlight(img, ctx.cx - w * 0.2f, cy - h * 0.2f, w * 0.15f,
                  h * 0.25f, 0.25f);
}

void render_backpack(Ctx& ctx) {
  Image& img = *ctx.img;
  float w = ctx.u(ctx.jitter(0.26, 0.33));
  float h = ctx.u(ctx.jitter(0.34, 0.42));
  float cy = ctx.cy - h / 2;
  Rgb fabric;
  switch (ctx.rng->uniform_int(3u)) {
    case 0: fabric = jitter_color(*ctx.rng, {0.2f, 0.3f, 0.5f}, 0.15f); break;
    case 1: fabric = jitter_color(*ctx.rng, {0.3f, 0.5f, 0.3f}, 0.15f); break;
    default:  // leather tones shared with purses
      fabric = jitter_color(*ctx.rng, {0.45f, 0.25f, 0.2f}, 0.15f);
      break;
  }
  paint_shadow(img, ctx.cx, ctx.cy + ctx.u(0.01f), w * 0.6f, ctx.u(0.03f),
               0.4f);
  // Main body.
  paint_sdf_hgrad(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, w * 0.2f},
                  fabric.scaled(0.65f), fabric, ctx.cx - w / 2,
                  ctx.cx + w / 2);
  // Top handle.
  paint_sdf(img,
            SdfCapsule{ctx.cx - w * 0.15f, cy - h / 2, ctx.cx + w * 0.15f,
                       cy - h / 2 - ctx.u(0.03f), ctx.u(0.012f)},
            fabric.scaled(0.5f));
  // Front pocket with zipper line.
  Rgb pocket = fabric.scaled(0.8f);
  paint_sdf(img,
            SdfRoundRect{ctx.cx, cy + h * 0.18f, w * 0.32f, h * 0.2f,
                         w * 0.12f},
            pocket);
  paint_sdf(img,
            SdfCapsule{ctx.cx - w * 0.3f, cy - h * 0.12f, ctx.cx + w * 0.3f,
                       cy - h * 0.12f, ctx.u(0.006f)},
            fabric.scaled(0.4f));
  // Shoulder straps peeking at the sides.
  paint_sdf(img,
            SdfCapsule{ctx.cx - w * 0.52f, cy - h * 0.3f, ctx.cx - w * 0.48f,
                       cy + h * 0.35f, ctx.u(0.018f)},
            fabric.scaled(0.55f));
  paint_sdf(img,
            SdfCapsule{ctx.cx + w * 0.52f, cy - h * 0.3f, ctx.cx + w * 0.48f,
                       cy + h * 0.35f, ctx.u(0.018f)},
            fabric.scaled(0.55f));
  texture_speckle(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, w * 0.2f},
                  0.025f, 3.0f, ctx.rng->next_u64());
  paint_highlight(img, ctx.cx - w * 0.18f, cy - h * 0.25f, w * 0.18f,
                  h * 0.2f, 0.2f);
}

void render_red_wine(Ctx& ctx) {
  // A stemmed glass of red wine.
  Image& img = *ctx.img;
  float bowl_r = ctx.u(ctx.jitter(0.10, 0.13));
  float stem_h = ctx.u(ctx.jitter(0.10, 0.14));
  float base_y = ctx.cy;
  float bowl_cy = base_y - stem_h - bowl_r;
  paint_shadow(img, ctx.cx, base_y + ctx.u(0.01f), bowl_r * 1.2f,
               ctx.u(0.025f), 0.35f);
  // Base + stem.
  Rgb glass{0.85f, 0.87f, 0.9f};
  paint_sdf(img,
            SdfEllipse{ctx.cx, base_y, bowl_r * 0.9f, ctx.u(0.015f)},
            glass, 0.8f);
  paint_sdf(img,
            SdfCapsule{ctx.cx, base_y, ctx.cx, bowl_cy + bowl_r * 0.5f,
                       ctx.u(0.008f)},
            glass, 0.8f);
  // Bowl with wine fill.
  paint_sdf(img, SdfEllipse{ctx.cx, bowl_cy, bowl_r, bowl_r * 1.15f}, glass,
            0.45f);
  Rgb wine = jitter_color(*ctx.rng, {0.4f, 0.05f, 0.12f}, 0.05f);
  paint_sdf(img,
            SdfEllipse{ctx.cx, bowl_cy + bowl_r * 0.3f, bowl_r * 0.92f,
                       bowl_r * 0.75f},
            wine, 0.95f);
  paint_highlight(img, ctx.cx - bowl_r * 0.4f, bowl_cy - bowl_r * 0.3f,
                  bowl_r * 0.25f, bowl_r * 0.5f, 0.4f);
}

void render_pillow(Ctx& ctx) {
  Image& img = *ctx.img;
  float w = ctx.u(ctx.jitter(0.36, 0.44));
  float h = ctx.u(ctx.jitter(0.22, 0.3));
  float cy = ctx.cy - h / 2;
  Rgb cloth = jitter_color(*ctx.rng, {0.85f, 0.82f, 0.78f}, 0.12f);
  paint_shadow(img, ctx.cx, ctx.cy, w * 0.6f, ctx.u(0.03f), 0.3f);
  paint_sdf_hgrad(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, h * 0.4f},
                  cloth.scaled(0.8f), cloth, ctx.cx - w / 2, ctx.cx + w / 2);
  // Soft crease lines.
  texture_stripes(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, h * 0.4f},
                  cloth.scaled(0.9f), h * 0.5f, 0.12f, 0.3f, 0.5f);
  texture_speckle(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, h * 0.4f},
                  0.02f, 6.0f, ctx.rng->next_u64());
  paint_highlight(img, ctx.cx - w * 0.15f, cy - h * 0.2f, w * 0.25f,
                  h * 0.3f, 0.25f);
}

void render_bubble(Ctx& ctx) {
  Image& img = *ctx.img;
  float r = ctx.u(ctx.jitter(0.14, 0.2));
  float cy = ctx.cy - r - ctx.u(0.05f);
  // Translucent sphere: faint rim + strong highlight.
  Rgb tint{0.75f, 0.85f, 0.95f};
  paint_sdf(img, SdfCircle{ctx.cx, cy, r}, tint, 0.25f);
  // Rim: ring via two circles.
  paint_sdf(img, SdfCircle{ctx.cx, cy, r}, tint.scaled(1.1f), 0.3f);
  paint_sdf(img, SdfCircle{ctx.cx, cy, r * 0.9f},
            {0.6f, 0.7f, 0.85f}, 0.15f);
  paint_highlight(img, ctx.cx - r * 0.4f, cy - r * 0.4f, r * 0.3f, r * 0.25f,
                  0.8f);
  paint_highlight(img, ctx.cx + r * 0.3f, cy + r * 0.35f, r * 0.18f,
                  r * 0.12f, 0.4f);
}

void render_soccer_ball(Ctx& ctx) {
  Image& img = *ctx.img;
  float r = ctx.u(ctx.jitter(0.14, 0.18));
  float cy = ctx.cy - r;
  paint_shadow(img, ctx.cx, ctx.cy + ctx.u(0.01f), r * 1.1f, ctx.u(0.03f),
               0.4f);
  paint_sdf_hgrad(img, SdfCircle{ctx.cx, cy, r}, {0.75f, 0.75f, 0.75f},
                  {0.95f, 0.95f, 0.95f}, ctx.cx - r, ctx.cx + r);
  // Dark patches.
  Rgb patch{0.12f, 0.12f, 0.12f};
  paint_sdf(img, SdfCircle{ctx.cx, cy, r * 0.22f}, patch);
  for (int i = 0; i < 5; ++i) {
    float a = static_cast<float>(i) * 1.2566f + ctx.jitter(0.0, 0.3);
    float px = ctx.cx + std::cos(a) * r * 0.72f;
    float py = cy + std::sin(a) * r * 0.72f;
    paint_sdf(img, SdfCircle{px, py, r * 0.16f}, patch, 0.9f);
  }
  paint_highlight(img, ctx.cx - r * 0.35f, cy - r * 0.4f, r * 0.3f, r * 0.25f,
                  0.3f);
}

void render_coffee_mug(Ctx& ctx) {
  Image& img = *ctx.img;
  float w = ctx.u(ctx.jitter(0.18, 0.24));
  float h = ctx.u(ctx.jitter(0.18, 0.24));
  float cy = ctx.cy - h / 2;
  Rgb ceramic = jitter_color(
      *ctx.rng,
      ctx.rng->bernoulli(0.5) ? Rgb{0.85f, 0.3f, 0.25f} : Rgb{0.25f, 0.45f,
                                                              0.7f},
      0.12f);
  paint_shadow(img, ctx.cx, ctx.cy + ctx.u(0.008f), w * 0.7f, ctx.u(0.025f),
               0.4f);
  // Handle: ring approximated by a capsule arc (three segments).
  Rgb handle = ceramic.scaled(0.9f);
  float hx = ctx.cx + w / 2;
  paint_sdf(img,
            SdfCapsule{hx, cy - h * 0.25f, hx + w * 0.22f, cy - h * 0.1f,
                       ctx.u(0.012f)},
            handle);
  paint_sdf(img,
            SdfCapsule{hx + w * 0.22f, cy - h * 0.1f, hx + w * 0.2f,
                       cy + h * 0.15f, ctx.u(0.012f)},
            handle);
  paint_sdf(img,
            SdfCapsule{hx + w * 0.2f, cy + h * 0.15f, hx, cy + h * 0.25f,
                       ctx.u(0.012f)},
            handle);
  // Body.
  paint_sdf_hgrad(img, SdfRoundRect{ctx.cx, cy, w / 2, h / 2, w * 0.12f},
                  ceramic.scaled(0.7f), ceramic, ctx.cx - w / 2,
                  ctx.cx + w / 2);
  // Coffee surface.
  paint_sdf(img,
            SdfEllipse{ctx.cx, cy - h / 2 + ctx.u(0.012f), w * 0.42f,
                       ctx.u(0.018f)},
            {0.25f, 0.15f, 0.08f});
  paint_highlight(img, ctx.cx - w * 0.2f, cy - h * 0.1f, w * 0.14f, h * 0.3f,
                  0.3f);
}

void render_laptop(Ctx& ctx) {
  Image& img = *ctx.img;
  float w = ctx.u(ctx.jitter(0.34, 0.42));
  float screen_h = ctx.u(ctx.jitter(0.2, 0.26));
  float base_h = ctx.u(0.035f);
  float base_y = ctx.cy;
  Rgb shell = jitter_color(*ctx.rng, {0.55f, 0.56f, 0.58f}, 0.08f);
  paint_shadow(img, ctx.cx, base_y + ctx.u(0.008f), w * 0.65f, ctx.u(0.02f),
               0.35f);
  // Base (keyboard deck).
  paint_sdf(img,
            SdfRoundRect{ctx.cx, base_y - base_h / 2, w / 2, base_h / 2,
                         base_h * 0.3f},
            shell);
  // Screen.
  float sc_cy = base_y - base_h - screen_h / 2;
  paint_sdf(img,
            SdfRoundRect{ctx.cx, sc_cy, w * 0.46f, screen_h / 2,
                         ctx.u(0.01f)},
            shell.scaled(0.7f));
  Rgb glow = jitter_color(*ctx.rng, {0.3f, 0.5f, 0.75f}, 0.2f);
  paint_sdf(img,
            SdfRoundRect{ctx.cx, sc_cy, w * 0.42f, screen_h * 0.42f,
                         ctx.u(0.006f)},
            glow);
  // Key rows.
  texture_stripes(img,
                  SdfRoundRect{ctx.cx, base_y - base_h / 2, w * 0.45f,
                               base_h * 0.35f, 1.0f},
                  shell.scaled(0.75f), base_h * 0.5f, 0.4f, 0.0f, 0.8f);
}

void render_sunhat(Ctx& ctx) {
  Image& img = *ctx.img;
  float brim_w = ctx.u(ctx.jitter(0.34, 0.42));
  float dome_w = brim_w * ctx.jitter(0.42, 0.52);
  float dome_h = ctx.u(ctx.jitter(0.12, 0.16));
  float base_y = ctx.cy - ctx.u(0.02f);
  Rgb straw = jitter_color(*ctx.rng, {0.85f, 0.72f, 0.45f}, 0.1f);
  paint_shadow(img, ctx.cx, ctx.cy + ctx.u(0.01f), brim_w * 0.6f,
               ctx.u(0.025f), 0.35f);
  // Brim.
  paint_sdf_hgrad(img,
                  SdfEllipse{ctx.cx, base_y, brim_w / 2, ctx.u(0.045f)},
                  straw.scaled(0.75f), straw, ctx.cx - brim_w / 2,
                  ctx.cx + brim_w / 2);
  // Dome.
  paint_sdf_hgrad(img,
                  SdfEllipse{ctx.cx, base_y - dome_h * 0.8f, dome_w / 2,
                             dome_h},
                  straw.scaled(0.8f), straw, ctx.cx - dome_w / 2,
                  ctx.cx + dome_w / 2);
  // Ribbon.
  Rgb ribbon = jitter_color(*ctx.rng, {0.5f, 0.15f, 0.2f}, 0.15f);
  paint_sdf(img,
            SdfRoundRect{ctx.cx, base_y - dome_h * 0.35f, dome_w * 0.52f,
                         ctx.u(0.016f), 2.0f},
            ribbon);
  texture_speckle(img,
                  SdfEllipse{ctx.cx, base_y, brim_w / 2, ctx.u(0.045f)},
                  0.03f, 2.0f, ctx.rng->next_u64());
}

}  // namespace

Image render_scene(const SceneSpec& spec, int size) {
  ES_TRACE_SCOPE("data", "render");
  ES_CHECK(size >= 32);
  ES_CHECK(spec.class_id >= 0 && spec.class_id < kNumClasses);
  ES_CHECK(spec.view_angle >= -1.0f && spec.view_angle <= 1.0f);

  Image img(size, size, 3);
  // Instance RNG: fully determined by class + instance seed, so the same
  // object re-renders identically at any angle except for the viewpoint
  // itself.
  Pcg32 rng(spec.instance_seed * 977 + static_cast<std::uint64_t>(
                                           spec.class_id + 1) * 131071,
            7);

  draw_background(img, rng);
  draw_clutter(img, rng);

  Ctx ctx;
  ctx.img = &img;
  ctx.rng = &rng;
  ctx.s = static_cast<float>(size);
  ctx.scale = static_cast<float>(rng.uniform(0.78, 1.0));
  // Viewpoint: the rig's five angles shift the object horizontally and
  // slightly change apparent width (the object is 3-D; the renderer
  // approximates the foreshortening).
  float angle_shift = spec.view_angle * ctx.s * 0.13f;
  ctx.cx = ctx.s * 0.5f + angle_shift +
           static_cast<float>(rng.uniform(-0.02, 0.02)) * ctx.s;
  ctx.cy = ctx.s * static_cast<float>(rng.uniform(0.76, 0.86));
  ctx.scale *= 1.0f - 0.06f * std::abs(spec.view_angle);

  switch (spec.class_id) {
    case kWaterBottle: render_water_bottle(ctx); break;
    case kBeerBottle: render_beer_bottle(ctx); break;
    case kWineBottle: render_wine_bottle(ctx); break;
    case kPurse: render_purse(ctx); break;
    case kBackpack: render_backpack(ctx); break;
    case kRedWine: render_red_wine(ctx); break;
    case kPillow: render_pillow(ctx); break;
    case kBubble: render_bubble(ctx); break;
    case kSoccerBall: render_soccer_ball(ctx); break;
    case kCoffeeMug: render_coffee_mug(ctx); break;
    case kLaptop: render_laptop(ctx); break;
    case kSunhat: render_sunhat(ctx); break;
    default: ES_CHECK_MSG(false, "unhandled class");
  }
  // Global lighting variation (lamp brightness / exposure of the source
  // photo the monitor displays).
  float light = static_cast<float>(rng.uniform(0.8, 1.1));
  for (float& v : img.data()) v *= light;
  img.clamp();
  return img;
}

}  // namespace edgestab
