// grade.cpp — accuracy against the pulse generator's beat truth.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hpp"

namespace wardbench {
namespace {

/// Index of the truth beat whose [onset, onset + interval) holds `t`, the
/// pairing rule of core::SessionValidator; -1 when none does.
long covering_beat(const std::vector<bio::BeatTruth>& truth, double t) {
  const auto it = std::upper_bound(
      truth.begin(), truth.end(), t,
      [](double v, const bio::BeatTruth& b) { return v < b.onset_s; });
  if (it == truth.begin()) return -1;
  const auto j = static_cast<long>(it - truth.begin()) - 1;
  const auto& b = truth[static_cast<std::size_t>(j)];
  return t < b.onset_s + b.interval_s ? j : -1;
}

struct Pooled {
  double sum_sq{0.0};
  std::size_t dof{0};
  void add_session(const std::vector<double>& r) {
    if (r.size() < 2) return;
    double mean = 0.0;
    for (double v : r) mean += v;
    mean /= static_cast<double>(r.size());
    for (double v : r) sum_sq += (v - mean) * (v - mean);
    dof += r.size() - 1;
  }
  [[nodiscard]] double sd() const {
    return dof == 0 ? 0.0 : std::sqrt(sum_sq / static_cast<double>(dof));
  }
};

}  // namespace

std::vector<bio::BeatTruth> monitored_truth(std::vector<bio::BeatTruth> beats,
                                            double epoch_s) {
  std::erase_if(beats, [epoch_s](const bio::BeatTruth& b) {
    return b.onset_s + b.interval_s <= epoch_s;
  });
  std::sort(beats.begin(), beats.end(), [](const auto& a, const auto& b) {
    return a.onset_s < b.onset_s;
  });
  return beats;
}

FleetGrade grade_fleet(const std::vector<SessionBeats>& sessions,
                       const core::StreamingConfig& streaming, Result& result) {
  FleetGrade grade;
  Pooled aligned, minus, plus;
  for (const SessionBeats& s : sessions) {
    core::SessionValidator validator;
    validator.add_truth(s.truth);
    for (const auto& e : s.estimates) {
      validator.add_estimate(e.time_s, e.systolic_mmhg, e.diastolic_mmhg);
    }
    const auto rec = validator.finalize(s.id, "", "", 0, nullptr);
    grade.sys.merge(rec.sys_error);
    grade.dia.merge(rec.dia_error);
    grade.truth_beats += rec.truth_beats;
    grade.matched_beats += rec.matched_beats;

    for (const auto& e : s.estimates) {
      if (!(e.systolic_mmhg > e.diastolic_mmhg)) {
        std::ostringstream why;
        why << "beat at " << e.time_s << " s has systolic " << e.systolic_mmhg
            << " <= diastolic " << e.diastolic_mmhg;
        result.session_failed(s.id, why.str());
        break;
      }
    }

    // The streaming monitor emits nothing before its first analysis window
    // fills and holds back the last hop plus one second (beats whose search
    // windows are still truncated). Truth beats there are its warm-up beats.
    std::size_t warmup = 0;
    for (const auto& b : s.truth) {
      const double t = b.onset_s - s.epoch_s;
      if (t < streaming.window_s || t >= s.stream_s - streaming.hop_s - 1.0) ++warmup;
    }
    const std::size_t n_truth = s.truth.size();
    const std::size_t n_est = s.estimates.size();
    if (n_est > n_truth || n_est + warmup < n_truth) {
      result.session_failed(s.id, std::to_string(n_est) + " beats for " +
                                      std::to_string(n_truth) + " truth beats (warm-up " +
                                      std::to_string(warmup) + ")");
    }

    std::vector<double> r0, rm, rp;
    for (const auto& e : s.estimates) {
      const long j = covering_beat(s.truth, e.time_s);
      if (j < 1 || j + 1 >= static_cast<long>(s.truth.size())) continue;
      const auto ju = static_cast<std::size_t>(j);
      r0.push_back(e.systolic_mmhg - s.truth[ju].systolic_mmhg);
      rm.push_back(e.systolic_mmhg - s.truth[ju - 1].systolic_mmhg);
      rp.push_back(e.systolic_mmhg - s.truth[ju + 1].systolic_mmhg);
    }
    aligned.add_session(r0);
    minus.add_session(rm);
    plus.add_session(rp);
  }
  grade.residual_sd_aligned = aligned.sd();
  grade.residual_sd_shift_minus = minus.sd();
  grade.residual_sd_shift_plus = plus.sd();

  for (const auto* acc : {&grade.sys, &grade.dia}) {
    const char* which = acc == &grade.sys ? "systolic" : "diastolic";
    std::ostringstream what;
    what << "fleet " << which << " error fails AAMI: " << acc->count() << " pairs, bias "
         << acc->mean_error_mmhg() << " mmHg, SD " << acc->error_sd_mmhg() << " mmHg";
    result.check(acc->count() >= 30 && std::abs(acc->mean_error_mmhg()) <= 5.0 &&
                     acc->error_sd_mmhg() <= 8.0,
                 what.str());
  }
  {
    std::ostringstream what;
    what << "beat alignment: residual SD " << grade.residual_sd_aligned
         << " mmHg against the truth log is not below the one-beat shifts ("
         << grade.residual_sd_shift_minus << ", " << grade.residual_sd_shift_plus << ")";
    result.check(grade.residual_sd_aligned < grade.residual_sd_shift_minus &&
                     grade.residual_sd_aligned < grade.residual_sd_shift_plus,
                 what.str());
  }
  return grade;
}

void put_accuracy(const FleetGrade& grade, Result& result) {
  result.put("sys_mae_mmhg", grade.sys.mean_absolute_error_mmhg(), "mmHg",
             grade.sys.count());
  result.put("dia_mae_mmhg", grade.dia.mean_absolute_error_mmhg(), "mmHg",
             grade.dia.count());
  result.put("core.beat_pairing_ratio",
             grade.truth_beats == 0 ? 0.0
                                    : static_cast<double>(grade.matched_beats) /
                                          static_cast<double>(grade.truth_beats),
             "ratio");
}

void shift_truth_one_beat(std::vector<SessionBeats>& sessions) {
  for (auto& s : sessions) {
    for (std::size_t i = 0; i + 1 < s.truth.size(); ++i) {
      s.truth[i].systolic_mmhg = s.truth[i + 1].systolic_mmhg;
      s.truth[i].diastolic_mmhg = s.truth[i + 1].diastolic_mmhg;
      s.truth[i].map_mmhg = s.truth[i + 1].map_mmhg;
    }
  }
}

}  // namespace wardbench
