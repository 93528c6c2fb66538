#include "colop/obs/html.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace colop::obs::html {

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '<') out += "&lt;";
    else if (c == '>') out += "&gt;";
    else if (c == '&') out += "&amp;";
    else out += c;
  }
  return out;
}

std::string fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

const char* color(int stage) {
  static const char* kPalette[] = {"#4e79a7", "#f28e2b", "#59a14f", "#e15759",
                                   "#b07aa1", "#76b7b2", "#edc948", "#9c755f"};
  return kPalette[stage >= 0 ? stage % 8 : 0];
}

void begin_page(std::ostream& os, const std::string& title) {
  os << "<!DOCTYPE html><html><head><meta charset=\"utf-8\">"
     << "<title>" << escape(title) << "</title><style>\n"
     << "body{font:14px/1.5 system-ui,sans-serif;margin:24px;color:#1a1a2e}\n"
     << "table{border-collapse:collapse;margin:12px 0}\n"
     << "th,td{border:1px solid #d4d4dc;padding:4px 10px;text-align:right}\n"
     << "th{background:#f4f4f8}td:first-child,th:first-child{text-align:left}\n"
     << "h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n"
     << "code{background:#f4f4f8;padding:1px 4px;border-radius:3px}\n"
     << ".cols{display:flex;gap:32px;flex-wrap:wrap}\n"
     << ".up{color:#b02a30;font-weight:600}.down{color:#2a7a2e}\n"
     << ".legend span{display:inline-block;margin-right:14px}\n"
     << ".legend i{display:inline-block;width:11px;height:11px;"
     << "margin-right:4px;border-radius:2px}\n"
     << "</style></head><body>\n";
}

void end_page(std::ostream& os) { os << "</body></html>\n"; }

void lanes(std::ostream& os, const std::vector<std::string>& names,
           const std::vector<Bar>& bars, double tmax,
           const std::vector<std::string>& legend,
           const std::string& wait_label) {
  const int width = 960, row_h = 26, left = 54;
  const int height = static_cast<int>(names.size()) * row_h + 24;
  const double sx = tmax > 0 ? (width - left - 10) / tmax : 0;
  os << "<svg width=\"" << width << "\" height=\"" << height
     << "\" role=\"img\">\n";
  for (std::size_t r = 0; r < names.size(); ++r) {
    const int y = 12 + static_cast<int>(r) * row_h;
    os << "<text x=\"4\" y=\"" << y + 15 << "\" font-size=\"11\" fill=\"#555\">"
       << escape(names[r]) << "</text>\n"
       << "<line x1=\"" << left << "\" y1=\"" << y + row_h - 3 << "\" x2=\""
       << width - 8 << "\" y2=\"" << y + row_h - 3
       << "\" stroke=\"#e4e4ea\"/>\n";
  }
  const std::size_t shown = std::min<std::size_t>(bars.size(), 4000);
  for (std::size_t i = 0; i < shown; ++i) {
    const Bar& b = bars[i];
    const int y = 12 + b.lane * row_h + (b.thin ? 12 : 0);
    os << "<rect x=\"" << fixed(left + b.t0 * sx, 2) << "\" y=\"" << y
       << "\" width=\"" << fixed(std::max(0.75, (b.t1 - b.t0) * sx), 2)
       << "\" height=\"" << (b.thin ? 6 : 12) << "\" fill=\"" << b.fill << "\""
       << (b.outlined ? " stroke=\"#1a1a2e\"" : "") << "><title>"
       << escape(b.title) << "</title></rect>\n";
  }
  os << "</svg>\n<p class=\"legend\">";
  for (std::size_t i = 0; i < legend.size(); ++i)
    os << "<span><i style=\"background:" << color(static_cast<int>(i))
       << "\"></i>" << escape(legend[i]) << "</span>";
  if (!wait_label.empty())
    os << "<span><i style=\"background:" << kWaitColor << "\"></i>"
       << escape(wait_label) << "</span>";
  os << "</p>\n";
}

}  // namespace colop::obs::html
