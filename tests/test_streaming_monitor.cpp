// Tests for the push-based streaming monitor with alarms.
#include "src/core/streaming_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/bio/pulse_generator.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/metrics.hpp"
#include "src/common/rng.hpp"
#include "src/bio/scenario.hpp"

namespace tono::core {
namespace {

std::vector<double> pulse_wave(const bio::PulseConfig& cfg, double duration_s) {
  bio::ArterialPulseGenerator gen{cfg};
  return gen.generate(1000.0, static_cast<std::size_t>(duration_s * 1000.0));
}

bio::PulseConfig steady() {
  bio::PulseConfig cfg;
  cfg.drift_mmhg_per_sqrt_s = 0.0;
  return cfg;
}

TEST(StreamingMonitor, EmitsEachBeatOnce) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<Beat> beats;
  mon.on_beat([&](const Beat& b) { beats.push_back(b); });
  mon.push(pulse_wave(steady(), 30.0));
  // ~36 beats at 72 bpm minus warmup/window edges.
  EXPECT_GE(beats.size(), 25u);
  EXPECT_LE(beats.size(), 40u);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_GT(beats[i].upstroke_s, beats[i - 1].upstroke_s);  // strictly ordered
    EXPECT_GT(beats[i].upstroke_s - beats[i - 1].upstroke_s, 0.3);  // no duplicates
  }
  EXPECT_EQ(mon.beats_emitted(), beats.size());
}

TEST(StreamingMonitor, BeatValuesPhysiological) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<Beat> beats;
  mon.on_beat([&](const Beat& b) { beats.push_back(b); });
  mon.push(pulse_wave(steady(), 25.0));
  ASSERT_GE(beats.size(), 15u);
  for (const auto& b : beats) {
    EXPECT_NEAR(b.systolic_value, 120.0, 8.0);
    EXPECT_NEAR(b.diastolic_value, 80.0, 8.0);
  }
}

TEST(StreamingMonitor, NoAlarmOnNormotensivePatient) {
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(pulse_wave(steady(), 30.0));
  EXPECT_TRUE(alarms.empty());
}

TEST(StreamingMonitor, HypotensionRaisesAndClears) {
  // Feed a scenario that crashes below the systolic-low limit and recovers.
  bio::PulseConfig cfg = steady();
  bio::ArterialPulseGenerator gen{cfg};
  const bio::ScenarioProfile crash{{
      bio::ScenarioKeyframe{0.0, 120.0, 80.0, 72.0},
      bio::ScenarioKeyframe{20.0, 118.0, 78.0, 74.0},
      bio::ScenarioKeyframe{30.0, 80.0, 52.0, 95.0},
      bio::ScenarioKeyframe{45.0, 80.0, 52.0, 95.0},
      bio::ScenarioKeyframe{60.0, 115.0, 76.0, 78.0},
      bio::ScenarioKeyframe{90.0, 118.0, 78.0, 74.0},
  }};
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  auto& reg = metrics::Registry::global();
  const auto raised0 = reg.counter(metrics::names::kMonitorAlarmsRaised).value();
  for (int i = 0; i < 90 * 1000; ++i) {
    const double t = i / 1000.0;
    if (i % 100 == 0) crash.apply(gen, t);
    mon.push(gen.sample(0.001));
  }
  // A systolic-low alarm must raise during the crash…
  bool raised = false;
  double raise_time = 0.0;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kSystolicLow && a.active) {
      raised = true;
      raise_time = a.time_s;
      break;
    }
  }
  ASSERT_TRUE(raised);
  EXPECT_GT(raise_time, 20.0);
  EXPECT_LT(raise_time, 45.0);  // bounded latency: within the crash
  // …and clear after recovery.
  bool cleared = false;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kSystolicLow && !a.active && a.time_s > raise_time) {
      cleared = true;
    }
  }
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(mon.alarm_active(AlarmKind::kSystolicLow));
  // The raise must also surface in the observability layer: at least one
  // alarm counted and a positive confirmation latency (confirm_beats = 3
  // spans roughly two beat intervals at these rates).
  EXPECT_GE(reg.counter(metrics::names::kMonitorAlarmsRaised).value() - raised0, 1u);
  const double latency = reg.gauge(metrics::names::kMonitorAlarmLatencyS).value();
  EXPECT_GT(latency, 0.0);
  EXPECT_LT(latency, 10.0);
}

TEST(StreamingMonitor, ConfirmationSuppressesSingleOutlierBeat) {
  // One artefactual deep beat must not alarm with confirm_beats = 3.
  auto wave = pulse_wave(steady(), 30.0);
  // Carve one fake "beat" far below the limit at t = 15 s.
  for (std::size_t i = 15000; i < 15400; ++i) {
    wave[i] = 60.0 + 25.0 * std::sin(2.0 * 3.14159 * (i - 15000) / 800.0);
  }
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(wave);
  for (const auto& a : alarms) {
    EXPECT_NE(a.kind, AlarmKind::kSystolicLow);
  }
}

TEST(StreamingMonitor, TachycardiaRaisesRateAlarm) {
  bio::PulseConfig fast = steady();
  fast.heart_rate_bpm = 150.0;
  StreamingMonitor mon{StreamingConfig{}};
  std::vector<AlarmEvent> alarms;
  mon.on_alarm([&](const AlarmEvent& a) { alarms.push_back(a); });
  mon.push(pulse_wave(fast, 30.0));
  bool rate_high = false;
  for (const auto& a : alarms) {
    if (a.kind == AlarmKind::kRateHigh && a.active) rate_high = true;
  }
  EXPECT_TRUE(rate_high);
  EXPECT_TRUE(mon.alarm_active(AlarmKind::kRateHigh));
}

TEST(StreamingMonitor, QualityCallbackFires) {
  StreamingMonitor mon{StreamingConfig{}};
  std::size_t quality_events = 0;
  double last_sqi = 0.0;
  mon.on_quality([&](const QualityReport& q, double) {
    ++quality_events;
    last_sqi = q.sqi;
  });
  mon.push(pulse_wave(steady(), 20.0));
  // (20 − 8) / 2 s hops ≈ 7 windows.
  EXPECT_GE(quality_events, 5u);
  EXPECT_GT(last_sqi, 0.5);
}

TEST(StreamingMonitor, QualityGateSuppressesNoise) {
  StreamingMonitor mon{StreamingConfig{}};
  std::size_t beats = 0;
  mon.on_beat([&](const Beat&) { ++beats; });
  // Baseline wander + white converter floor, no pulse.
  std::vector<double> noise(20000);
  double state = 0.0;
  tono::Rng rng{5};
  for (auto& v : noise) {
    state = 0.98 * state + rng.gaussian(0.0, 0.2);   // wander, sigma ~= 1
    v = 90.0 + state + rng.gaussian(0.0, 1.0);       // white converter floor
  }
  mon.push(noise);
  EXPECT_EQ(beats, 0u);
}

TEST(StreamingMonitor, RejectsBadConfig) {
  StreamingConfig bad;
  bad.sample_rate_hz = 0.0;
  EXPECT_THROW((StreamingMonitor{bad}), std::invalid_argument);
  StreamingConfig bad2;
  bad2.window_s = 1.0;
  EXPECT_THROW((StreamingMonitor{bad2}), std::invalid_argument);
  StreamingConfig bad3;
  bad3.hop_s = 20.0;
  EXPECT_THROW((StreamingMonitor{bad3}), std::invalid_argument);
  StreamingConfig bad4;
  bad4.limits.confirm_beats = 0;
  EXPECT_THROW((StreamingMonitor{bad4}), std::invalid_argument);
}

/// Appends every callback's payload to `log`, in firing order.
void record(StreamingMonitor& mon, std::vector<double>* log) {
  mon.on_beat([log](const Beat& b) {
    log->insert(log->end(), {b.upstroke_s, b.systolic_value, b.diastolic_value});
  });
  mon.on_alarm([log](const AlarmEvent& a) {
    log->insert(log->end(), {static_cast<double>(a.kind), a.active ? 1.0 : 0.0,
                             a.time_s, a.value});
  });
  mon.on_quality([log](const QualityReport& q, double time_s) {
    log->insert(log->end(), {time_s, q.sqi});
  });
}

std::vector<std::uint8_t> checkpoint_of(const StreamingMonitor& mon) {
  CheckpointWriter out;
  mon.serialize(out);
  return out.finish(1);
}

/// A checkpoint of a monitor with `buffered` samples of 100 mmHg, `since_hop`
/// samples into its hop, clock and window start at `t0_s`, and no history.
std::vector<std::uint8_t> monitor_state(std::size_t buffered, std::size_t since_hop,
                                        double t0_s = 0.0) {
  CheckpointWriter out;
  out.section("streaming_monitor");
  out.size(buffered);
  for (std::size_t i = 0; i < buffered; ++i) out.f64(100.0);
  out.size(since_hop);
  out.f64(t0_s);  // clock
  out.f64(t0_s);  // window start
  out.f64(0.0);   // last beat
  out.size(0);    // beats emitted
  out.f64(0.0);   // last rate
  out.size(6);
  for (int i = 0; i < 6; ++i) {
    out.size(0);
    out.size(0);
    out.boolean(false);
    out.f64(0.0);
  }
  return out.finish(1);
}

// push() compacts its buffer only at hops, so between hops it holds the
// window plus the hop in progress. A checkpoint taken at any sample must
// restore, round-trip its bytes and continue exactly like the monitor that
// never stopped.
TEST(StreamingMonitor, CheckpointRestoresAtEverySampleOffsetAcrossTwoHops) {
  StreamingConfig config;
  config.limits.systolic_high_mmhg = 118.0;  // alarms too, not only beats
  const std::size_t window = 8000;
  const std::size_t hop = 2000;
  const std::vector<double> wave = pulse_wave(steady(), 17.0);

  std::vector<double> uninterrupted;
  {
    StreamingMonitor mon{config};
    record(mon, &uninterrupted);
    mon.push(wave);
  }
  ASSERT_FALSE(uninterrupted.empty());

  StreamingMonitor mon{config};
  std::vector<double> head;  // events fired before the current offset
  record(mon, &head);
  std::size_t pushed = 0;
  std::size_t continued_runs = 0;
  for (std::size_t offset = window; offset <= window + 2 * hop; ++offset) {
    while (pushed < offset) mon.push(wave[pushed++]);
    const std::vector<std::uint8_t> blob = checkpoint_of(mon);
    StreamingMonitor restored{config};
    CheckpointReader in{blob};
    ASSERT_NO_THROW(restored.restore(in)) << "offset " << offset;
    ASSERT_EQ(checkpoint_of(restored), blob) << "offset " << offset;
    if (offset == window + 1 || offset == window + hop - 1 ||
        offset == window + hop || offset == window + hop + 777) {
      std::vector<double> continued = head;
      record(restored, &continued);
      for (std::size_t i = offset; i < wave.size(); ++i) restored.push(wave[i]);
      EXPECT_EQ(continued, uninterrupted) << "offset " << offset;
      ++continued_runs;
    }
  }
  EXPECT_EQ(continued_runs, 4u);
}

// Restore accepts exactly the (buffered, since-hop) pairs push() reaches.
TEST(StreamingMonitor, RestoreRejectsUnreachableHopStates) {
  const StreamingConfig config;
  const std::size_t window = 8000;
  const std::size_t hop = 2000;
  const auto restores = [&](std::size_t buffered, std::size_t since_hop) {
    StreamingMonitor mon{config};
    CheckpointReader in{monitor_state(buffered, since_hop)};
    try {
      mon.restore(in);
      return true;
    } catch (const CheckpointError&) {
      return false;
    }
  };
  EXPECT_TRUE(restores(0, 0));
  EXPECT_TRUE(restores(100, 100));                // first window filling
  EXPECT_TRUE(restores(window, 0));               // on a hop
  EXPECT_TRUE(restores(window + 5, 5));           // inside a hop
  EXPECT_TRUE(restores(window + hop - 1, hop - 1));
  EXPECT_FALSE(restores(100, 99));
  EXPECT_FALSE(restores(window, 5));
  EXPECT_FALSE(restores(window + 5, 4));
  EXPECT_FALSE(restores(window + hop, hop));      // compacted at the hop
  EXPECT_FALSE(restores(window + hop + 1, 1));
}

void expect_same(const QualityReport& a, const QualityReport& b) {
  EXPECT_EQ(a.sqi, b.sqi);
  EXPECT_EQ(a.interval_cv, b.interval_cv);
  EXPECT_EQ(a.amplitude_cv, b.amplitude_cv);
  EXPECT_EQ(a.artifact_fraction, b.artifact_fraction);
  EXPECT_EQ(a.pulse_snr, b.pulse_snr);
  EXPECT_EQ(a.shape_consistency, b.shape_consistency);
  EXPECT_EQ(a.beat_count, b.beat_count);
  EXPECT_EQ(a.usable, b.usable);
}

/// The heart rate the monitor last evaluated alarms with, from its checkpoint.
double last_rate_of(const StreamingMonitor& mon) {
  CheckpointReader in{checkpoint_of(mon)};
  in.section("streaming_monitor");
  for (std::size_t n = in.size(); n > 0; --n) (void)in.f64();
  (void)in.size();                            // since hop
  for (int i = 0; i < 3; ++i) (void)in.f64();  // clock, window start, last beat
  (void)in.size();                            // beats emitted
  return in.f64();
}

struct HopRun {
  std::size_t beats{0};
  std::vector<double> rates;  ///< last_rate_of at every hop
};

/// Streams `wave` through a fresh monitor whose clock starts at `t0_s`, and
/// checks every hop against one fresh analysis of its window: the hop's
/// quality report is that analysis's grade and every beat it emits is one of
/// its beats shifted by the window start, bit for bit.
HopRun run_checked_hops(const std::vector<double>& wave, double t0_s) {
  const std::size_t window = 8000;
  StreamingMonitor mon{StreamingConfig{}};
  CheckpointReader in{monitor_state(0, 0, t0_s)};
  mon.restore(in);

  HopRun run;
  std::size_t pushed = 0;
  BeatAnalysis fresh;
  double start_s = 0.0;
  mon.on_quality([&](const QualityReport& q, double) {
    const std::span<const double> w{wave.data() + (pushed - window), window};
    fresh = BeatDetector{}.analyze(w);
    start_s = t0_s + static_cast<double>(pushed - window) / 1000.0;
    expect_same(q, SignalQualityAssessor{}.assess(w, fresh, 1000.0));
    run.rates.push_back(last_rate_of(mon));
  });
  mon.on_beat([&](const Beat& b) {
    std::size_t matches = 0;
    for (const auto& f : fresh.beats) {
      const Beat s = f.shifted(start_s);
      if (s.upstroke_s != b.upstroke_s) continue;
      ++matches;
      EXPECT_EQ(s.foot_s, b.foot_s);
      EXPECT_EQ(s.peak_s, b.peak_s);
      EXPECT_EQ(s.systolic_value, b.systolic_value);
      EXPECT_EQ(s.diastolic_value, b.diastolic_value);
      EXPECT_EQ(s.mean_value, b.mean_value);
    }
    EXPECT_EQ(matches, 1u) << "beat at " << b.upstroke_s;
    ++run.beats;
  });
  for (const double v : wave) {
    ++pushed;
    mon.push(v);
  }
  run.rates.push_back(last_rate_of(mon));
  return run;
}

TEST(StreamingMonitor, HopGradesAndEmitsOneAnalysisOfItsWindow) {
  // Ten hours into the stream the same samples emit the same beats at the
  // same rates: analysis is window-relative, only emission shifts.
  const auto wave = pulse_wave(steady(), 20.0);
  const HopRun at_start = run_checked_hops(wave, 0.0);
  const HopRun ten_hours_in = run_checked_hops(wave, 36000.0);
  EXPECT_GE(at_start.beats, 10u);
  EXPECT_EQ(ten_hours_in.beats, at_start.beats);
  EXPECT_EQ(ten_hours_in.rates, at_start.rates);
  EXPECT_GT(at_start.rates.back(), 0.0);
}

TEST(StreamingMonitor, AlarmToString) {
  EXPECT_EQ(to_string(AlarmKind::kSystolicLow), "systolic-low");
  EXPECT_EQ(to_string(AlarmKind::kRateHigh), "rate-high");
}

}  // namespace
}  // namespace tono::core
