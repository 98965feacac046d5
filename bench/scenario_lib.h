#ifndef MINOS_BENCH_SCENARIO_LIB_H_
#define MINOS_BENCH_SCENARIO_LIB_H_

// Shared scenario builders for the figure-reproduction benches and the
// performance experiments. Each builder constructs the multimedia object
// a figure of the paper shows, from scratch, through the public API.

#include <string>

#include "minos/image/image.h"
#include "minos/obs/trace.h"
#include "minos/object/multimedia_object.h"
#include "minos/text/document.h"
#include "minos/util/status.h"

namespace minos::bench {

/// A multi-chapter office document with emphasis runs (Figures 1-2 style
/// content).
text::Document OfficeDocument();

/// A long synthetic report with `paragraphs` paragraphs (sweep workloads).
text::Document LongReport(int paragraphs);

/// A simulated chest x-ray bitmap of the given size.
image::Image XrayBitmap(int width, int height);

/// A labeled subway/city map (graphics image) with stations, hospitals
/// and university sites (Figures 7-8 style content).
image::Image SubwayMap(int width, int height);

/// A transparency overlay: a circle marking plus a short caption near it
/// (Figures 5-6 style content). `index` varies the marked position.
image::Image MarkingOverlay(int width, int height, int index);

/// An overwrite layer for the walking-tour simulation (Figures 9-10):
/// blank spots along the walked route so far.
image::Image RouteOverwrite(int width, int height, int step);

/// Builds the Figures 1-2 object: visual pages mixing text, graphics and
/// bitmaps, archived and ready to browse.
object::MultimediaObject BuildVisualPagesObject(storage::ObjectId id);

/// Builds the Figures 3-4 object: a visual-mode object whose x-ray visual
/// logical message pins at the top while three pages of related text
/// cycle below.
object::MultimediaObject BuildVisualMessageObject(storage::ObjectId id);

/// Builds the Figures 5-6 object: transparency set over an x-ray.
object::MultimediaObject BuildTransparencyObject(storage::ObjectId id,
                                                 int transparencies);

/// Builds the Figures 7-8 parent object (subway map with relevant-object
/// indicators) and the two relevant overlay objects (university sites /
/// hospitals). Targets get ids id+1 and id+2.
struct RelevantObjectsScenario {
  object::MultimediaObject parent;
  object::MultimediaObject university;
  object::MultimediaObject hospitals;
};
RelevantObjectsScenario BuildRelevantObjectsScenario(storage::ObjectId id);

/// Builds the Figures 9-10 object: process simulation of a city walking
/// tour using one base image plus overwrites with voice messages.
object::MultimediaObject BuildProcessSimulationObject(storage::ObjectId id,
                                                      int steps);

/// Parses `--workers N` (or `--workers=N`) from the command line and
/// returns the value (default 1; the MINOS_WORKERS environment variable
/// supplies the default when the flag is absent). 0 is valid: the
/// bench's task pools then start no thread and run every epoch inline
/// on the caller; negative values clamp to 0. Call once at the top of
/// main: the value is remembered, read back via Workers(), and
/// stamped into every metrics snapshot's `workers` header field — the
/// one field the determinism matrix allows to differ across runs.
int ParseWorkers(int argc, char** argv);

/// The worker count this run was invoked with (1 until ParseWorkers).
int Workers();

/// Prints a standard bench header line and arms the end-of-run metrics
/// snapshot: at process exit the default registry is exported as
/// `BENCH_<experiment>.json` (non-alphanumerics in the experiment name
/// become '_') into $MINOS_STATS_DIR, or the working directory when the
/// variable is unset.
void PrintHeader(const std::string& experiment, const std::string& title);

/// Stamps the simulated time that the exit-time snapshot will carry in
/// its `sim_time_us` header field. Benches that advance a SimClock call
/// this once at the end of the run.
void NoteSimTime(Micros sim_time_us);

/// Writes a minos.metrics.v1 snapshot of the default registry to `path`
/// right now, instead of (not in addition to) the exit-time export.
Status EmitMetricsSnapshot(const std::string& bench_name,
                           const std::string& path, Micros sim_time_us = 0);

/// Writes `tracer`'s spans as a minos.trace.v1 document to
/// `TRACE_<experiment>.json` next to the metrics snapshot (same
/// $MINOS_STATS_DIR rule, same name sanitization), then verifies that
/// the sum of the trace's root-span durations reconciles with the
/// bench's externally measured sim time within 1% — the bench-side half
/// of the tools/trace_report.py critical-path check. The file is
/// written even when reconciliation fails (FailedPrecondition), so the
/// mismatch can be inspected.
Status EmitTraceSnapshot(const std::string& experiment,
                         const obs::Tracer& tracer, Micros measured_us);

}  // namespace minos::bench

#endif  // MINOS_BENCH_SCENARIO_LIB_H_
