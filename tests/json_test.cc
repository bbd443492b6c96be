// Tests for the shared JSON layer: deterministic emission (insertion order,
// shortest round-trip numbers, non-finite -> null), the strict parser, and
// emit/parse round trips — the invariants the golden report snapshots and
// the batch bit-identity guarantee stand on.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>

#include "common/json.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

TEST(Json, EmitsInInsertionOrderCompactAndPretty) {
  Json j = Json::Object();
  j.Set("zebra", 1);
  j.Set("alpha", Json::Array().Push(true).Push(Json()).Push("x"));
  j.Set("nested", Json::Object().Set("k", 2.5));
  EXPECT_EQ(j.Dump(),
            "{\"zebra\":1,\"alpha\":[true,null,\"x\"],\"nested\":{\"k\":2.5}}");
  EXPECT_EQ(j.Dump(2),
            "{\n  \"zebra\": 1,\n  \"alpha\": [\n    true,\n    null,\n"
            "    \"x\"\n  ],\n  \"nested\": {\n    \"k\": 2.5\n  }\n}");
}

TEST(Json, NumbersAreShortestRoundTrip) {
  EXPECT_EQ(Json(0.1).Dump(), "0.1");
  EXPECT_EQ(Json(1e-4).Dump(), "1e-04");
  EXPECT_EQ(Json(1.0 / 3.0).Dump(), "0.3333333333333333");
  EXPECT_EQ(Json(std::int64_t{1} << 62).Dump(), "4611686018427387904");
  EXPECT_EQ(Json(-42).Dump(), "-42");
  // uint64 values above INT64_MAX keep their unsigned spelling and parse
  // back equal (large sim seeds round-trip through reports).
  EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json::Parse("18446744073709551615"),
            Json(std::uint64_t{18446744073709551615ull}));
  EXPECT_EQ(Json::Parse("18446744073709551615").AsUint(),
            18446744073709551615ull);
  EXPECT_EQ(Json(std::uint64_t{7}), Json(std::int64_t{7}));  // small agrees
  // Non-finite doubles have no JSON spelling; they emit as null.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).Dump(), "null");
  EXPECT_EQ(Json(std::nan("")).Dump(), "null");
}

TEST(Json, StringsEscape) {
  EXPECT_EQ(Json("a\"b\\c\nd\t").Dump(), "\"a\\\"b\\\\c\\nd\\t\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).Dump(), "\"\\u0001\"");
}

TEST(Json, ParseRoundTripsEmittedDocuments) {
  Json j = Json::Object();
  j.Set("pi", 3.141592653589793);
  j.Set("count", std::int64_t{123456789012345});
  j.Set("label", "hello \"world\"\n");
  j.Set("flags", Json::Array().Push(true).Push(false).Push(Json()));
  j.Set("inner", Json::Object().Set("neg", -1e-9));
  for (const int indent : {0, 2}) {
    const Json back = Json::Parse(j.Dump(indent));
    EXPECT_EQ(back, j) << "indent " << indent;
    EXPECT_EQ(back.Dump(2), j.Dump(2)) << "indent " << indent;
  }
}

TEST(Json, ParseAcceptsStandardInput) {
  const Json doc = Json::Parse(
      "  {\"a\": [1, 2.5, -3e2], \"b\": {\"c\": \"\\u0041\"} } ");
  EXPECT_EQ(doc.Find("a")->At(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(doc.Find("a")->At(1).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(doc.Find("a")->At(2).AsDouble(), -300.0);
  EXPECT_EQ(doc.Find("b")->Find("c")->AsString(), "A");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
        "{\"a\":1} trailing", "01x", "{'a':1}"}) {
    EXPECT_THROW(Json::Parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, NonFiniteNumbersRoundTripThroughSentinels) {
  // JsonSetNumber keeps non-finite doubles lossless on the wire: the key
  // emits as null plus an explicit "<key>_nonfinite" sentinel, and
  // JsonGetNumber reconstructs the original value from the parsed document.
  const double inf = std::numeric_limits<double>::infinity();
  Json j = Json::Object();
  JsonSetNumber(j, "pos", inf);
  JsonSetNumber(j, "neg", -inf);
  JsonSetNumber(j, "nan", std::nan(""));
  JsonSetNumber(j, "plain", 2.5);
  EXPECT_EQ(j.Dump(),
            "{\"pos\":null,\"pos_nonfinite\":\"inf\","
            "\"neg\":null,\"neg_nonfinite\":\"-inf\","
            "\"nan\":null,\"nan_nonfinite\":\"nan\","
            "\"plain\":2.5}");
  const Json back = Json::Parse(j.Dump());
  EXPECT_EQ(JsonGetNumber(back, "pos"), inf);
  EXPECT_EQ(JsonGetNumber(back, "neg"), -inf);
  EXPECT_TRUE(std::isnan(JsonGetNumber(back, "nan")));
  EXPECT_DOUBLE_EQ(JsonGetNumber(back, "plain"), 2.5);
  // A finite overwrite of a previously non-finite key retires the sentinel.
  JsonSetNumber(j, "pos", 1.0);
  EXPECT_EQ(j.Find("pos")->AsDouble(), 1.0);
  EXPECT_EQ(j.Find("pos_nonfinite"), nullptr);
  // Strictness: a missing field and a bare null without its sentinel are
  // both errors — an ambiguous null must not quietly become a number.
  const Json bare = Json::Parse("{\"x\":null}");
  EXPECT_THROW(JsonGetNumber(bare, "x"), std::invalid_argument);
  EXPECT_THROW(JsonGetNumber(bare, "absent"), std::invalid_argument);
  const Json odd = Json::Parse("{\"x\":null,\"x_nonfinite\":\"huge\"}");
  EXPECT_THROW(JsonGetNumber(odd, "x"), std::invalid_argument);
}

TEST(Json, JsonSetNumberOverwritesKeepSentinelsConsistent) {
  const double inf = std::numeric_limits<double>::infinity();
  // A finite value over a non-finite one retires the sentinel, and the key
  // keeps its position.
  Json j = Json::Object();
  JsonSetNumber(j, "rate", -inf);
  j.Set("after", 1);
  JsonSetNumber(j, "rate", 0.5);
  EXPECT_EQ(j.Dump(), "{\"rate\":0.5,\"after\":1}");
  // A non-finite value over a finite one nulls the key and adds the
  // sentinel at the end.
  JsonSetNumber(j, "rate", std::nan(""));
  EXPECT_EQ(j.Dump(),
            "{\"rate\":null,\"after\":1,\"rate_nonfinite\":\"nan\"}");
  // Another non-finite value overwrites the sentinel in place.
  JsonSetNumber(j, "rate", inf);
  EXPECT_EQ(j.Dump(),
            "{\"rate\":null,\"after\":1,\"rate_nonfinite\":\"inf\"}");
  // Keys that merely share a prefix or suffix with "rate"'s sentinel are
  // other fields, and a finite "rate" leaves them alone.
  Json k = Json::Object();
  k.Set("rate_x_nonfinite", "inf");
  k.Set("ra_nonfinite", "inf");
  k.Set("rate_nonfinite2", "inf");
  k.Set("xrate_nonfinite", "inf");
  JsonSetNumber(k, "rate", 2.0);
  EXPECT_EQ(k.Dump(),
            "{\"rate_x_nonfinite\":\"inf\",\"ra_nonfinite\":\"inf\","
            "\"rate_nonfinite2\":\"inf\",\"xrate_nonfinite\":\"inf\","
            "\"rate\":2}");
  // Only an object takes numbers.
  Json arr = Json::Array();
  EXPECT_THROW(JsonSetNumber(arr, "rate", 1.0), std::invalid_argument);
}

TEST(Json, EscapesEveryByteLikeTheReferenceSpelling) {
  // The emitter's escaping, pinned byte by byte against the printf-based
  // spelling reports were first emitted with.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string escaped;
    switch (c) {
      case '"': escaped = "\\\""; break;
      case '\\': escaped = "\\\\"; break;
      case '\b': escaped = "\\b"; break;
      case '\f': escaped = "\\f"; break;
      case '\n': escaped = "\\n"; break;
      case '\r': escaped = "\\r"; break;
      case '\t': escaped = "\\t"; break;
      default:
        if (b < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", b);
          escaped = buf;
        } else {
          escaped = std::string(1, c);
        }
    }
    const std::string text = {'a', c, 'z'};
    const std::string want = "\"a" + escaped.append("z\"");
    EXPECT_EQ(JsonEscape(text), want) << "byte " << b;
    EXPECT_EQ(Json(text).Dump(), want) << "byte " << b;
    EXPECT_EQ(Json::Object().Set(text, 1).Dump(), "{" + want + ":1}")
        << "byte " << b;
  }
}

/// A random tree for the emit/parse property: nested arrays and objects,
/// integers across the int64 and uint64 ranges, doubles of every magnitude
/// and sign, and strings drawn from every escape class.
Json RandomTree(std::mt19937_64& rng, int depth) {
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const auto random_string = [&] {
    // Plain text, the short escapes, control bytes (\u00XX), DEL and
    // bytes above 0x7f.
    static constexpr char kPool[] = "aZ9 /\"\\\b\f\n\r\t\x01\x1f\x7f\x80\xff";
    std::string s;
    const int len = pick(12);
    for (int i = 0; i < len; ++i) {
      s += pick(8) == 0 ? static_cast<char>(pick(0x20))
                        : kPool[pick(sizeof kPool - 1)];
    }
    return s;
  };
  const int kind = depth >= 4 ? pick(6) : pick(8);
  switch (kind) {
    case 0: return Json();
    case 1: return Json(pick(2) == 0);
    case 2: {
      // Signed integers, and uint64 values above INT64_MAX.
      const std::uint64_t bits = rng();
      return pick(2) == 0 ? Json(static_cast<std::int64_t>(bits))
                          : Json(bits | (std::uint64_t{1} << 63));
    }
    case 3: {
      // Negative, tiny (down to subnormal) and huge doubles; never -0.0,
      // which has no integer-free spelling and parses back as 0.
      const double mantissa =
          1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;  // [1, 2)
      const double v = std::ldexp(mantissa, pick(2098) - 1074);
      return Json(pick(2) == 0 ? v : -v);
    }
    case 4:
    case 5: return Json(random_string());
    case 6: {
      Json arr = Json::Array();
      for (int n = pick(5); n > 0; --n) arr.Push(RandomTree(rng, depth + 1));
      return arr;
    }
    default: {
      Json obj = Json::Object();
      for (int n = pick(5); n > 0; --n) {
        obj.Set(random_string(), RandomTree(rng, depth + 1));
      }
      return obj;
    }
  }
}

TEST(Json, RandomTreesSurviveEmitParseEmit) {
  std::mt19937_64 rng(20061019);
  for (int i = 0; i < 500; ++i) {
    const Json j = RandomTree(rng, 0);
    for (const int indent : {0, 2}) {
      const std::string once = j.Dump(indent);
      EXPECT_EQ(Json::Parse(once).Dump(indent), once)
          << "tree " << i << " indent " << indent;
    }
  }
}

TEST(Json, ParseCapsNestingDepth) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const Json deepest = Json::Parse(nested(Json::kMaxParseDepth));
  EXPECT_EQ(deepest.Dump(), nested(Json::kMaxParseDepth));
  const std::string objects =
      std::string(Json::kMaxParseDepth - 1, '[') + "{\"k\":1}" +
      std::string(Json::kMaxParseDepth - 1, ']');
  EXPECT_EQ(Json::Parse(objects).Dump(), objects);

  for (const std::string& deep :
       {nested(Json::kMaxParseDepth + 1), std::string(100000, '['),
        std::string(Json::kMaxParseDepth, '[') + "{\"k\":1}" +
            std::string(Json::kMaxParseDepth, ']')}) {
    try {
      Json::Parse(deep);
      ADD_FAILURE() << "parsed " << deep.size() << " bytes of nesting";
    } catch (const std::invalid_argument& e) {
      // The 257th opening bracket is at byte offset 256.
      EXPECT_NE(std::string(e.what()).find("at byte 256"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, ReserveKeepsContentsAndRejectsScalars) {
  Json arr = Json::Array();
  arr.Reserve(4).Push(1).Push(2);
  EXPECT_EQ(arr.Dump(), "[1,2]");
  Json obj = Json::Object();
  obj.Reserve(2).Set("a", 1).Set("b", 2).Set("c", 3);  // past the reserve
  EXPECT_EQ(obj.Dump(), "{\"a\":1,\"b\":2,\"c\":3}");
  Json scalar(1.5);
  EXPECT_THROW(scalar.Reserve(1), std::invalid_argument);
  Json null;
  EXPECT_THROW(null.Reserve(1), std::invalid_argument);
}

TEST(Json, SetOverwritesInPlaceKeepingPosition) {
  Json j = Json::Object();
  j.Set("first", 1).Set("second", 2).Set("first", 10);
  EXPECT_EQ(j.Dump(), "{\"first\":10,\"second\":2}");
}

}  // namespace
}  // namespace coc
