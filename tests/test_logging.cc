#include <gtest/gtest.h>

#include "common/logging.hh"

namespace casq {
namespace {

TEST(Logging, LevelRoundTrip)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
}

TEST(Logging, AssertPassesOnTrue)
{
    casq_assert(1 + 1 == 2, "arithmetic holds");
    SUCCEED();
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(casq_panic("boom"), "boom");
}

TEST(LoggingDeath, AssertAbortsOnFalse)
{
    EXPECT_DEATH(casq_assert(false, "must fail"), "must fail");
}

TEST(Logging, UserErrorCarriesItsMessage)
{
    try {
        throw UserError(detail::format("bad config ", 7));
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "bad config 7");
    }
}

} // namespace
} // namespace casq
