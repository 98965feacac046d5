#include "scenario_lib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "minos/image/raster.h"
#include "minos/obs/export.h"
#include "minos/obs/metrics.h"
#include "minos/text/markup.h"

namespace minos::bench {

using image::Bitmap;
using image::GraphicsImage;
using image::GraphicsObject;
using image::Image;
using image::LabelKind;
using image::Point;
using image::Rect;
using image::ShapeKind;
using object::MultimediaObject;
using object::TextAnchor;
using object::VisualPageSpec;

namespace {

/// Aborts loudly if a scenario builder produced an invalid object.
void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "scenario build failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

}  // namespace

text::Document OfficeDocument() {
  text::MarkupParser parser;
  auto doc = parser.Parse(R"(.TITLE Regional Office Quarterly Review
.ABSTRACT
This review summarizes the activity of the regional office during the
last quarter, covering staffing, facilities, and the new records system.
.CHAPTER Staffing
.PP
The office added two archivists and one systems operator. Training on
the new *workstation* equipment completed ahead of schedule.
.PP
Staff turnover remained below two percent for the third quarter running.
.CHAPTER Facilities
.SECTION Records Room
The records room received the optical disk archiver and a second
high resolution scanner for incoming paper documents.
.PP
Conversion of the paper backlog continues at roughly four hundred pages
per day with _quality control_ sampling at five percent.
.CHAPTER Outlook
.PP
Next quarter the office will pilot voice annotations on incoming case
files and begin mailing multimedia objects between branches.
)");
  return std::move(doc).value();
}

text::Document LongReport(int paragraphs) {
  std::string markup = ".TITLE Synthetic Long Report\n";
  for (int i = 0; i < paragraphs; ++i) {
    if (i % 8 == 0) {
      markup += ".CHAPTER Part " + std::to_string(i / 8 + 1) + "\n";
    }
    markup += ".PP\n";
    for (int s = 0; s < 5; ++s) {
      markup += "Paragraph " + std::to_string(i) + " sentence " +
                std::to_string(s) +
                " discusses archived multimedia objects and their "
                "presentation. ";
    }
    markup += "\n";
  }
  text::MarkupParser parser;
  auto doc = parser.Parse(markup);
  return std::move(doc).value();
}

Image XrayBitmap(int width, int height) {
  Bitmap bm(width, height);
  // A rib-cage-like pattern: nested ellipse-ish bands plus a bright spot
  // (the finding).
  const int cx = width / 2, cy = height / 2;
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const double dx = static_cast<double>(x - cx) / (width / 2.0);
      const double dy = static_cast<double>(y - cy) / (height / 2.0);
      const double r = dx * dx + dy * dy;
      if (r < 1.0) {
        const int band = static_cast<int>(r * 12.0);
        bm.Set(x, y, band % 2 == 0 ? 90 : 40);
      }
    }
  }
  bm.FillRect(Rect{cx + width / 8, cy - height / 8, width / 16,
                   height / 16},
              230);
  return Image::FromBitmap(std::move(bm));
}

Image SubwayMap(int width, int height) {
  GraphicsImage g(width, height);
  // Two subway lines.
  GraphicsObject line1;
  line1.shape = ShapeKind::kPolyline;
  line1.vertices = {{0, height / 3},
                    {width / 3, height / 3},
                    {2 * width / 3, height / 2},
                    {width - 1, height / 2}};
  line1.ink = 180;
  line1.label = {LabelKind::kInvisible, "red line", {width / 3, height / 3}};
  g.Add(line1);
  GraphicsObject line2;
  line2.shape = ShapeKind::kPolyline;
  line2.vertices = {{width / 2, 0},
                    {width / 2, height / 2},
                    {width / 3, height - 1}};
  line2.ink = 180;
  line2.label = {LabelKind::kInvisible, "blue line", {width / 2, height / 4}};
  g.Add(line2);
  // Stations with voice labels.
  const char* stations[] = {"union station", "city hall",
                            "market square", "harbour front"};
  const Point positions[] = {{width / 3, height / 3},
                             {width / 2, height / 2},
                             {2 * width / 3, height / 2},
                             {width / 2, height / 6}};
  for (int i = 0; i < 4; ++i) {
    GraphicsObject s;
    s.shape = ShapeKind::kCircle;
    s.vertices = {positions[i]};
    s.radius = 5;
    s.filled = true;
    s.label = {LabelKind::kVoice, stations[i],
               {positions[i].x + 8, positions[i].y}};
    g.Add(s);
  }
  // Hospitals (text labels) and university sites.
  GraphicsObject hospital;
  hospital.shape = ShapeKind::kPolygon;
  hospital.vertices = {{width / 6, height / 6},
                       {width / 6 + 20, height / 6},
                       {width / 6 + 20, height / 6 + 16},
                       {width / 6, height / 6 + 16}};
  hospital.label = {LabelKind::kText, "general hospital",
                    {width / 6, height / 6 - 6}};
  g.Add(hospital);
  GraphicsObject campus;
  campus.shape = ShapeKind::kPolygon;
  campus.vertices = {{3 * width / 4, height / 5},
                     {3 * width / 4 + 26, height / 5},
                     {3 * width / 4 + 26, height / 5 + 20},
                     {3 * width / 4, height / 5 + 20}};
  campus.label = {LabelKind::kText, "university campus",
                  {3 * width / 4, height / 5 - 6}};
  g.Add(campus);
  return Image::FromGraphics(std::move(g));
}

Image MarkingOverlay(int width, int height, int index) {
  GraphicsImage g(width, height);
  GraphicsObject circle;
  circle.shape = ShapeKind::kCircle;
  circle.vertices = {{width / 4 + index * width / 6, height / 3 +
                      (index % 2) * height / 5}};
  circle.radius = 14 + index * 2;
  circle.ink = 255;
  circle.label = {LabelKind::kText,
                  "finding " + std::to_string(index + 1),
                  {circle.vertices[0].x, circle.vertices[0].y - 20}};
  g.Add(circle);
  return Image::FromGraphics(std::move(g));
}

Image RouteOverwrite(int width, int height, int step) {
  GraphicsImage g(width, height);
  // Blank spots identify the route walked so far (§3, Figures 9-10).
  for (int i = 0; i <= step; ++i) {
    GraphicsObject spot;
    spot.shape = ShapeKind::kCircle;
    spot.vertices = {{width / 8 + i * width / 10,
                      height / 2 + ((i % 3) - 1) * height / 8}};
    spot.radius = 4;
    spot.filled = true;
    spot.ink = 255;
    g.Add(spot);
  }
  return Image::FromGraphics(std::move(g));
}

MultimediaObject BuildVisualPagesObject(storage::ObjectId id) {
  MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 14;
  text::Document doc = OfficeDocument();
  obj.SetTextPart(std::move(doc));
  // Page assembly: one spec per text page, then a mixed page with the
  // map, then the x-ray page.
  text::TextFormatter formatter(obj.descriptor().layout);
  const size_t text_pages =
      formatter.Paginate(obj.text_part()).value().size();
  for (size_t i = 0; i < text_pages; ++i) {
    VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }
  const uint32_t map_index = obj.AddImage(SubwayMap(280, 180)).value();
  const uint32_t xray_index = obj.AddImage(XrayBitmap(240, 200)).value();
  VisualPageSpec map_page;
  map_page.images.push_back({map_index, Rect{20, 16, 280, 180}});
  obj.descriptor().pages.push_back(map_page);
  VisualPageSpec xray_page;
  xray_page.images.push_back({xray_index, Rect{40, 10, 240, 200}});
  obj.descriptor().pages.push_back(xray_page);
  CheckOk(obj.Archive());
  return obj;
}

MultimediaObject BuildVisualMessageObject(storage::ObjectId id) {
  MultimediaObject obj(id);
  // Half-height pages: the lower screen shows the text while the x-ray
  // message stays pinned at the top (Figures 3-4).
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 7;
  text::MarkupParser parser;
  std::string markup = ".TITLE Radiology Note 1042\n.PP\n";
  for (int s = 0; s < 18; ++s) {
    markup += "Observation sentence " + std::to_string(s + 1) +
              " concerning the hairline fracture near the joint and the "
              "surrounding tissue. ";
  }
  markup += "\n.PP\nUnrelated administrative remark closes the note.\n";
  auto doc = parser.Parse(markup);
  obj.SetTextPart(std::move(doc).value());
  const uint32_t xray = obj.AddImage(XrayBitmap(220, 150)).value();

  text::TextFormatter formatter(obj.descriptor().layout);
  auto pages = formatter.Paginate(obj.text_part()).value();
  for (size_t i = 0; i < pages.size(); ++i) {
    VisualPageSpec page;
    page.text_page = static_cast<uint32_t>(i + 1);
    obj.descriptor().pages.push_back(page);
  }

  // The visual logical message: the x-ray, related to the observation
  // text (which spans several pages).
  const std::string& contents = obj.text_part().contents();
  const size_t begin = contents.find("Observation sentence 1");
  const size_t end = contents.find("Unrelated");
  object::VisualLogicalMessage message;
  message.text = "XRAY 1042";
  message.image_index = xray;
  message.text_anchors.push_back(TextAnchor{begin, end});
  obj.descriptor().visual_messages.push_back(message);
  CheckOk(obj.Archive());
  return obj;
}

MultimediaObject BuildTransparencyObject(storage::ObjectId id,
                                         int transparencies) {
  MultimediaObject obj(id);
  obj.descriptor().layout.width = 48;
  obj.descriptor().layout.height = 12;
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE X-ray With Findings\n.PP\nEach transparency pinpoints one "
      "finding on the radiograph below.\n");
  obj.SetTextPart(std::move(doc).value());

  const uint32_t xray = obj.AddImage(XrayBitmap(260, 190)).value();
  VisualPageSpec base;
  base.text_page = 1;
  base.images.push_back({xray, Rect{30, 90, 260, 190}});
  obj.descriptor().pages.push_back(base);

  object::TransparencySetSpec set;
  set.first_page = 1;
  set.count = static_cast<uint32_t>(transparencies);
  set.method = object::TransparencyDisplay::kStacked;
  for (int i = 0; i < transparencies; ++i) {
    const uint32_t overlay =
        obj.AddImage(MarkingOverlay(260, 190, i)).value();
    VisualPageSpec page;
    page.kind = VisualPageSpec::Kind::kTransparency;
    page.images.push_back({overlay, Rect{30, 90, 260, 190}});
    obj.descriptor().pages.push_back(page);
  }
  obj.descriptor().transparency_sets.push_back(set);
  CheckOk(obj.Archive());
  return obj;
}

RelevantObjectsScenario BuildRelevantObjectsScenario(storage::ObjectId id) {
  RelevantObjectsScenario scenario{MultimediaObject(id),
                                   MultimediaObject(id + 1),
                                   MultimediaObject(id + 2)};
  // The two relevant objects: transparencies superimposed on the map
  // (modeled as independent single-page objects showing map + overlay).
  auto build_overlay = [&](MultimediaObject* obj, int which) {
    GraphicsImage g(280, 180);
    for (int i = 0; i < 3; ++i) {
      GraphicsObject site;
      site.shape = ShapeKind::kPolygon;
      const int x = 40 + i * 80 + which * 20;
      const int y = which == 0 ? 40 : 120;
      site.vertices = {{x, y}, {x + 18, y}, {x + 18, y + 14}, {x, y + 14}};
      site.filled = true;
      site.ink = 200;
      site.label = {LabelKind::kText,
                    which == 0 ? "university site" : "hospital",
                    {x, y - 6}};
      g.Add(site);
    }
    const uint32_t base =
        obj->AddImage(SubwayMap(280, 180)).value();
    const uint32_t overlay =
        obj->AddImage(Image::FromGraphics(std::move(g))).value();
    VisualPageSpec map_page;
    map_page.images.push_back({base, Rect{0, 0, 280, 180}});
    obj->descriptor().pages.push_back(map_page);
    VisualPageSpec overlay_page;
    overlay_page.kind = VisualPageSpec::Kind::kTransparency;
    overlay_page.images.push_back({overlay, Rect{0, 0, 280, 180}});
    obj->descriptor().pages.push_back(overlay_page);
    object::TransparencySetSpec set;
    set.first_page = 1;
    set.count = 1;
    obj->descriptor().transparency_sets.push_back(set);
    CheckOk(obj->Archive());
  };
  build_overlay(&scenario.university, 0);
  build_overlay(&scenario.hospitals, 1);

  // The parent: the subway map with two relevant-object indicators.
  MultimediaObject& parent = scenario.parent;
  text::MarkupParser parser;
  auto doc = parser.Parse(
      ".TITLE City Subway Map\n.PP\nSelect an option to superimpose the "
      "sites of the university or the hospitals of the city.\n");
  parent.SetTextPart(std::move(doc).value());
  const uint32_t map = parent.AddImage(SubwayMap(280, 180)).value();
  VisualPageSpec page;
  page.text_page = 1;
  page.images.push_back({map, Rect{20, 60, 280, 180}});
  parent.descriptor().pages.push_back(page);

  object::RelevantObjectLink uni;
  uni.target = id + 1;
  uni.indicator_label = "university sites";
  uni.parent_image_index = map;
  parent.descriptor().relevant_objects.push_back(uni);
  object::RelevantObjectLink hosp;
  hosp.target = id + 2;
  hosp.indicator_label = "hospitals";
  hosp.parent_image_index = map;
  parent.descriptor().relevant_objects.push_back(hosp);
  CheckOk(parent.Archive());
  return scenario;
}

MultimediaObject BuildProcessSimulationObject(storage::ObjectId id,
                                              int steps) {
  MultimediaObject obj(id);
  const uint32_t base = obj.AddImage(SubwayMap(280, 180)).value();
  VisualPageSpec base_page;
  base_page.images.push_back({base, Rect{0, 0, 280, 180}});
  obj.descriptor().pages.push_back(base_page);

  object::ProcessSimulationSpec sim;
  sim.first_page = 0;
  sim.count = static_cast<uint32_t>(steps) + 1;
  sim.page_interval = MillisToMicros(800);
  sim.page_messages.push_back("we begin at the market square");
  for (int i = 0; i < steps; ++i) {
    const uint32_t overlay =
        obj.AddImage(RouteOverwrite(280, 180, i)).value();
    VisualPageSpec page;
    page.kind = VisualPageSpec::Kind::kOverwrite;
    page.images.push_back({overlay, Rect{0, 0, 280, 180}});
    obj.descriptor().pages.push_back(page);
    sim.page_messages.push_back(
        i % 2 == 0 ? "note the old clock tower on the left"
                   : "the walk continues along the canal");
  }
  obj.descriptor().process_simulations.push_back(sim);
  CheckOk(obj.Archive());
  return obj;
}

namespace {

/// Exit-time snapshot bookkeeping for the bench that called PrintHeader.
struct SnapshotState {
  std::string bench;
  Micros sim_time = 0;
  int workers = 1;
  bool emitted_explicitly = false;
};

SnapshotState& State() {
  static SnapshotState* state = new SnapshotState();
  return *state;
}

std::string SanitizeBenchName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

std::string SnapshotPath(const std::string& bench) {
  const std::string base = "BENCH_" + SanitizeBenchName(bench) + ".json";
  const char* dir = std::getenv("MINOS_STATS_DIR");
  return (dir != nullptr && *dir != '\0') ? std::string(dir) + "/" + base
                                          : base;
}

void EmitSnapshotAtExit() {
  SnapshotState& state = State();
  if (state.emitted_explicitly || state.bench.empty()) return;
  obs::SnapshotMeta meta{state.bench, state.sim_time, state.workers};
  Status status = obs::WriteSnapshotJson(obs::MetricsRegistry::Default(),
                                         SnapshotPath(state.bench), meta);
  if (!status.ok()) {
    std::fprintf(stderr, "metrics snapshot failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

void PrintHeader(const std::string& experiment, const std::string& title) {
  std::printf("== %s: %s ==\n", experiment.c_str(), title.c_str());
  SnapshotState& state = State();
  if (state.bench.empty()) {
    state.bench = experiment;
    std::atexit(EmitSnapshotAtExit);
  }
}

void NoteSimTime(Micros sim_time_us) { State().sim_time = sim_time_us; }

int ParseWorkers(int argc, char** argv) {
  int workers = 1;
  if (const char* env = std::getenv("MINOS_WORKERS");
      env != nullptr && *env != '\0') {
    workers = std::max(0, std::atoi(env));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      workers = std::max(0, std::atoi(argv[i + 1]));
      ++i;
    } else if (arg.rfind("--workers=", 0) == 0) {
      workers = std::max(0, std::atoi(arg.c_str() + 10));
    }
  }
  State().workers = workers;
  return workers;
}

int Workers() { return State().workers; }

Status EmitMetricsSnapshot(const std::string& bench_name,
                           const std::string& path, Micros sim_time_us) {
  State().emitted_explicitly = true;
  obs::SnapshotMeta meta{bench_name, sim_time_us, State().workers};
  return obs::WriteSnapshotJson(obs::MetricsRegistry::Default(), path, meta);
}

Status EmitTraceSnapshot(const std::string& experiment,
                         const obs::Tracer& tracer, Micros measured_us) {
  const std::string base =
      "TRACE_" + SanitizeBenchName(experiment) + ".json";
  const char* dir = std::getenv("MINOS_STATS_DIR");
  const std::string path = (dir != nullptr && *dir != '\0')
                               ? std::string(dir) + "/" + base
                               : base;
  obs::Tracer::TraceMeta meta;
  meta.bench = experiment;
  meta.measured_us = measured_us;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + path);
    out << tracer.ToJson(meta) << "\n";
    if (!out.good()) return Status::Internal("write failed: " + path);
  }
  // Reconcile: every measured microsecond must be owned by exactly one
  // root span, so the roots must sum to the bench's own clock reading.
  Micros roots = 0;
  for (const obs::SpanRecord& span : tracer.OrderedSpans()) {
    if (span.parent_span_id == 0) roots += span.duration_us();
  }
  const Micros tolerance = measured_us / 100;
  const Micros delta = roots > measured_us ? roots - measured_us
                                           : measured_us - roots;
  if (delta > tolerance) {
    return Status::FailedPrecondition(
        "trace does not reconcile: root spans sum to " +
        std::to_string(roots) + "us, bench measured " +
        std::to_string(measured_us) + "us (wrote " + path + ")");
  }
  std::printf("trace: %s (%lld root-us vs %lld measured-us)\n",
              path.c_str(), static_cast<long long>(roots),
              static_cast<long long>(measured_us));
  return Status::OK();
}

}  // namespace minos::bench
