#include "bench.hpp"

#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <cstring>

#include "numeric/quantize.hpp"

namespace perfbench {

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec / 1e6; };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool same_bits(const salo::Tensor3<float>& a, const salo::Tensor3<float>& b) {
    if (a.count() != b.count() || a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (int h = 0; h < a.count(); ++h) {
        const auto& x = a[h].data();
        const auto& y = b[h].data();
        if (std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) return false;
    }
    return true;
}

double golden_max_error(const salo::HybridPattern& pattern, const salo::Tensor3<float>& q,
                        const salo::Tensor3<float>& k, const salo::Tensor3<float>& v,
                        float scale, const salo::Tensor3<float>& out, int threads) {
    using salo::InputFx;
    const int heads = q.count();
    std::vector<double> err(static_cast<std::size_t>(heads), 0.0);
    auto one_head = [&](int h) {
        salo::Matrix<float> q_scaled = q[h];
        for (float& x : q_scaled.data()) x *= scale;
        const salo::Matrix<float> gold = salo::SaloEngine::golden(
            pattern, salo::quantize_roundtrip<InputFx>(q_scaled),
            salo::quantize_roundtrip<InputFx>(k[h]), salo::quantize_roundtrip<InputFx>(v[h]),
            1.0f);
        double worst = 0.0;
        const auto& o = out[h].data();
        const auto& g = gold.data();
        for (std::size_t i = 0; i < o.size(); ++i)
            worst = std::max(worst, std::abs(static_cast<double>(o[i]) - g[i]));
        err[static_cast<std::size_t>(h)] = worst;
    };
    const int workers = std::clamp(threads, 1, heads);
    std::vector<std::thread> pool;
    for (int w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
            for (int h = w; h < heads; h += workers) one_head(h);
        });
    for (std::thread& t : pool) t.join();
    return *std::max_element(err.begin(), err.end());
}

}  // namespace perfbench
