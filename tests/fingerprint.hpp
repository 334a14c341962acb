// FNV-1a fingerprints for tests that pin a whole event stream (a
// schedule, an arrival order, a rank stream) to one 64-bit value.
#pragma once

#include <cstdint>

#include "net/sim_driver.hpp"

namespace wfqs {

class Fingerprint {
public:
    void mix(std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xFF;
            h_ *= 0x100000001b3ULL;
        }
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every record's (id, service start, departure): pins a whole schedule.
inline std::uint64_t departure_fingerprint(const net::SimResult& result) {
    Fingerprint fp;
    for (const auto& r : result.records) {
        fp.mix(r.packet.id);
        fp.mix(r.service_start_ns);
        fp.mix(r.departure_ns);
    }
    return fp.value();
}

}  // namespace wfqs
