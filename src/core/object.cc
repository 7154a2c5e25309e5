#include "core/object.h"

#include <algorithm>

namespace ps2 {

SpatioTextualObject SpatioTextualObject::FromText(ObjectId id, Point loc,
                                                  const std::string& text,
                                                  Vocabulary& vocab,
                                                  const Tokenizer& tokenizer) {
  std::vector<TermId> terms;
  for (const auto& tok : tokenizer.Tokenize(text)) {
    terms.push_back(vocab.Intern(tok));
  }
  return FromTerms(id, loc, std::move(terms));
}

SpatioTextualObject SpatioTextualObject::FromTerms(ObjectId id, Point loc,
                                                   std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  SpatioTextualObject o;
  o.id = id;
  o.loc = loc;
  o.terms = std::move(terms);
  return o;
}

}  // namespace ps2
