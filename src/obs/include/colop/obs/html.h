#pragma once
// The shell every self-contained HTML report shares (the run differ's and
// the runtime report's): one stylesheet, escaping, number format, stage
// palette and an SVG of horizontal lanes.  No scripts, no external assets.

#include <iosfwd>
#include <string>
#include <vector>

namespace colop::obs::html {

/// <, > and & escaped.
[[nodiscard]] std::string escape(const std::string& s);
/// `v` with `prec` digits after the point.
[[nodiscard]] std::string fixed(double v, int prec = 3);
/// Qualitative, colorblind-safe palette, cycling every 8 stages.
[[nodiscard]] const char* color(int stage);
/// Colour of waits in lanes and legends.
inline constexpr const char* kWaitColor = "#c8c8d2";

/// Doctype, head with the shared stylesheet, and an opened <body>.
void begin_page(std::ostream& os, const std::string& title);
/// Closes what begin_page opened.
void end_page(std::ostream& os);

/// One bar in a lane: [t0, t1] in the lanes' time unit.
struct Bar {
  int lane = 0;
  double t0 = 0, t1 = 0;
  std::string fill;   ///< CSS colour
  std::string title;  ///< hover text (escaped here)
  bool thin = false;  ///< drawn as a low strip (waits)
  bool outlined = false;
};

/// An SVG with one labelled lane per entry of `names`, all on one time
/// axis from 0 to `tmax` (at most 4000 bars drawn), then a legend: one
/// palette swatch per entry of `legend` and, if named, the wait swatch.
void lanes(std::ostream& os, const std::vector<std::string>& names,
           const std::vector<Bar>& bars, double tmax,
           const std::vector<std::string>& legend,
           const std::string& wait_label = "");

}  // namespace colop::obs::html
