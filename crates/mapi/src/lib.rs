//! # mp-mapi — data dissemination: QueryEngine, Materials API, auth,
//! rate limiting, sandboxes, and derived-view builders
//!
//! The paper's §III-D and §IV-D components:
//!
//! * [`queryengine`] — the sanitizing/aliasing abstraction layer every
//!   query passes through (§III-B4);
//! * [`rest`] — the Materials API router
//!   (`/rest/v1/materials/Fe2O3/vasp/energy`, Fig. 4);
//! * [`auth`] — third-party-delegated identity and API keys (§IV-D1);
//! * [`ratelimit`] — anti-scraping token buckets (§IV-D1);
//! * [`weblog`] — query-latency capture behind Fig. 5;
//! * [`builder`] — the tasks→materials MapReduce view builder (§III-B3)
//!   and MapReduce-based V&V checks (§IV-C2);
//! * [`sandbox`] — user-private data areas with publish flow (Fig. 3).

pub mod auth;
pub mod builder;
pub mod client;
pub mod error;
pub mod queryengine;
pub mod ratelimit;
pub mod rest;
pub mod sandbox;
pub mod weblog;
pub mod webui;

pub use auth::{visibility_filter, Account, AuthError, AuthRegistry, Provider, ProviderAssertion};
pub use builder::{build_materials_view, run_vnv_checks, vnv_clean, VnvViolations};
pub use client::{ClientError, MpClient};
pub use error::ApiError;
pub use queryengine::{CachedRows, Fetched, QueryEngine};
pub use ratelimit::{RateLimitConfig, RateLimiter};
pub use rest::{ApiRequest, ApiResponse, MaterialsApi};
pub use sandbox::Sandbox;
pub use weblog::{WebLog, WebQuery};
pub use webui::{render_bands_svg, render_binary_hull_svg, render_dos_svg, render_xrd_svg, WebUi};
