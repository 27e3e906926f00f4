// Quickstart: the paper's running example end-to-end.
//
// Builds the computer-retailer database of Figure 1, poses the example
// table of Figure 2 (partially specified cells, one fully empty cell per
// row), and asks the library to discover the minimal valid project-join
// queries. The expected outcome, per Example 3, is exactly one valid query:
// Sales joining Customer, Device and App with CustName/DevName/AppName
// projected as columns A/B/C.

#include <cstdio>

#include "core/discovery.h"
#include "datagen/retailer.h"

int main() {
  qbe::Database db = qbe::MakeRetailerDatabase();
  qbe::ExampleTable et = qbe::MakeFigure2ExampleTable();

  std::printf("Example table (Figure 2):\n");
  for (int r = 0; r < et.num_rows(); ++r) {
    for (int c = 0; c < et.num_columns(); ++c) {
      std::printf("  %-10s", et.cell(r, c).IsEmpty()
                                 ? "(empty)"
                                 : et.cell(r, c).text.c_str());
    }
    std::printf("\n");
  }

  qbe::DiscoveryOptions options;
  options.algorithm = qbe::Algorithm::kFilter;
  qbe::DiscoveryResult result = qbe::DiscoverQueries(db, et, options);

  std::printf("\nCandidate queries considered: %zu\n", result.num_candidates);
  std::printf("Verifications executed:       %lld\n",
              static_cast<long long>(result.counters.verifications));
  std::printf("Valid minimal queries:        %zu\n\n", result.queries.size());
  for (const qbe::DiscoveredQuery& q : result.queries) {
    std::printf("  score=%.3f  %s\n", q.score, q.sql.c_str());
  }

  // The same discovery through every verification algorithm must agree.
  for (qbe::Algorithm algo : {qbe::Algorithm::kVerifyAll,
                              qbe::Algorithm::kSimplePrune,
                              qbe::Algorithm::kWeave}) {
    qbe::DiscoveryOptions alt = options;
    alt.algorithm = algo;
    qbe::DiscoveryResult r2 = qbe::DiscoverQueries(db, et, alt);
    if (r2.queries.size() != result.queries.size()) {
      std::printf("ERROR: algorithm disagreement!\n");
      return 1;
    }
  }
  std::printf("\nAll verification algorithms agree on the valid set.\n");
  return 0;
}
