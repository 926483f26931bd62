//===- device/DeviceRuntime.cpp -------------------------------------------===//
//
// Part of psg, under the BSD 3-Clause License.
//
//===----------------------------------------------------------------------===//

#include "device/DeviceRuntime.h"

#include "device/AsyncHostRuntime.h"
#include "device/HostRuntime.h"

using namespace psg;

// Anchor the vtables of the interface classes in this translation unit.
DeviceBuffer::~DeviceBuffer() = default;
Event::~Event() = default;
Stream::~Stream() = default;
DeviceRuntime::~DeviceRuntime() = default;

const char *psg::runtimeKindName(RuntimeKind Kind) {
  switch (Kind) {
  case RuntimeKind::Host:
    return "host";
  case RuntimeKind::HostAsync:
    return "host-async";
  case RuntimeKind::Cuda:
    return "cuda";
  }
  return "unknown";
}

ErrorOr<RuntimeKind> psg::parseRuntimeKind(const std::string &Name) {
  if (Name == "host")
    return RuntimeKind::Host;
  if (Name == "host-async")
    return RuntimeKind::HostAsync;
  if (Name == "cuda")
    return RuntimeKind::Cuda;
  return ErrorOr<RuntimeKind>::failure(
      "unknown runtime '" + Name + "' (known: host, host-async, cuda)");
}

ErrorOr<std::unique_ptr<DeviceRuntime>>
psg::createDeviceRuntime(RuntimeKind Kind, DeviceSpec Spec,
                         unsigned HostWorkers) {
  switch (Kind) {
  case RuntimeKind::Host:
    return std::unique_ptr<DeviceRuntime>(
        std::make_unique<HostRuntime>(std::move(Spec), HostWorkers));
  case RuntimeKind::HostAsync:
    return std::unique_ptr<DeviceRuntime>(std::make_unique<AsyncHostRuntime>(
        std::move(Spec), HostWorkers));
  case RuntimeKind::Cuda:
    return ErrorOr<std::unique_ptr<DeviceRuntime>>::failure(
        "cuda runtime not available: psg has no CUDA backend");
  }
  return ErrorOr<std::unique_ptr<DeviceRuntime>>::failure(
      "unknown runtime kind");
}
