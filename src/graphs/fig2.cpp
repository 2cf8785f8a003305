#include "graphs/generators.hpp"

namespace wsf::graphs {

// Figure 2 of the paper replaces Spoonhower et al.'s one-touch gadget with a
// DAG on which a single touch costs Ω(C·T∞) additional misses under the
// parent-first policy. The paper notes the DAG "is similar to the DAG in
// Figure 7(a)", and the proof of Theorem 10 carries the analysis; we expose
// it as the fig7a construction under its Figure 2 name, and test_claims
// sweeps C on it directly. (No separate generator: the two figures share one gadget.)

}  // namespace wsf::graphs
