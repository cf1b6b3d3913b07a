#include "ingest/package_source.hpp"

#include <utility>

namespace mlad::ingest {

CaptureSource::CaptureSource(std::vector<ics::LinkFrame> wire)
    : wire_(std::move(wire)) {}

bool CaptureSource::next(ics::LinkFrame& out) {
  if (pos_ >= wire_.size()) return false;
  out = wire_[pos_++];
  return true;
}

}  // namespace mlad::ingest
