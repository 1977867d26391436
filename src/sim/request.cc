#include "request.hh"

namespace xpc::req {

const char *
criticalityName(Criticality c)
{
    switch (c) {
      case Criticality::Sheddable:
        return "sheddable";
      case Criticality::Default:
        return "default";
      case Criticality::Critical:
        return "critical";
    }
    return "unknown";
}

} // namespace xpc::req
